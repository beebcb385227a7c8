//! Single shard file (`.cskb`) encode/decode — base corpus shards and
//! append-only delta shards. See the crate docs for the byte-by-byte
//! layout.
//!
//! Both shard kinds share one container: a fixed 12-byte header followed
//! by `count` length-prefixed, checksummed records. They differ only in
//! the header's *kind* field and in what a record payload is:
//!
//! * **base** shards (`kind = 0`, `KIND_BASE`): every record payload is
//!   one [`CorrelationSketch`] in the [`correlation_sketches::binary`]
//!   layout — exactly the original `.cskb` format (the kind field
//!   occupies the bytes that were previously reserved-as-zero, so every
//!   pre-delta shard file is a valid base shard byte for byte).
//! * **delta** shards (`kind = 1`, `KIND_DELTA`): every record payload
//!   is a tagged [`DeltaRecord`] — one tag byte
//!   ([`correlation_sketches::DELTA_TAG_SKETCH`] = append,
//!   [`correlation_sketches::DELTA_TAG_TOMBSTONE`] = delete) followed by
//!   the sketch payload or the tombstone body (`u32` id length + UTF-8
//!   id). The per-record checksum covers the tag *and* the body, so a
//!   flipped tag byte is caught before any payload parse.
//!
//! A reader asking for one kind and finding the other gets a typed
//! [`SketchError::Corrupt`] naming both — a delta shard can never be
//! silently loaded as corpus content, and vice versa.

use std::path::Path;

use correlation_sketches::{CorrelationSketch, DeltaHead, DeltaRecord, SketchError, SketchHead};
use sketch_hashing::murmur3::murmur3_x64_128;

use crate::error::StoreError;

/// First four bytes of every shard file (ASCII `"CSKB"` — Correlation
/// SKetch Binary).
pub(crate) const MAGIC: [u8; 4] = *b"CSKB";

/// Newest shard format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Header kind field of a base corpus shard (sketch records only).
pub(crate) const KIND_BASE: u16 = 0;

/// Header kind field of a delta shard (tagged append/tombstone records).
pub(crate) const KIND_DELTA: u16 = 1;

/// Fixed shard header size: magic (4) + version (2) + kind (2) +
/// record count (4).
const HEADER_LEN: usize = 12;

/// Seed of the per-record MurmurHash3 checksum.
const CHECKSUM_SEED: u64 = 0;

pub(crate) fn checksum(payload: &[u8]) -> u64 {
    murmur3_x64_128(payload, CHECKSUM_SEED).0
}

/// Widen a `u32` header/length field into a `usize`, failing as
/// [`SketchError::Corrupt`] on targets whose `usize` cannot hold it
/// (instead of silently wrapping the way a bare `as` cast would).
fn wire_len(field: u32, context: &str) -> Result<usize, SketchError> {
    usize::try_from(field)
        .map_err(|_| SketchError::Corrupt(format!("{context} {field} exceeds this target's usize")))
}

fn kind_name(kind: u16) -> &'static str {
    match kind {
        KIND_BASE => "base",
        KIND_DELTA => "delta",
        _ => "unknown",
    }
}

/// Frame already-encoded record payloads into shard-file bytes (header +
/// checksummed records) for the given shard kind.
pub(crate) fn encode_records(kind: u16, payloads: &[Vec<u8>]) -> Result<Vec<u8>, SketchError> {
    let count = u32::try_from(payloads.len())
        .map_err(|_| SketchError::Corrupt("shard record count exceeds u32".into()))?;
    let body: usize = payloads.iter().map(|p| p.len() + 12).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for payload in payloads {
        let len = u32::try_from(payload.len())
            .map_err(|_| SketchError::Corrupt("record payload exceeds u32 length".into()))?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&checksum(payload).to_le_bytes());
    }
    Ok(out)
}

/// Parse shard-file bytes of the expected kind into record payload
/// slices, verifying magic, version, kind, every record checksum (before
/// any payload parsing), and exact end-of-file.
fn decode_records(bytes: &[u8], expect_kind: u16) -> Result<Vec<&[u8]>, SketchError> {
    if bytes.len() < HEADER_LEN {
        return Err(SketchError::Truncated {
            context: "shard header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(SketchError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != FORMAT_VERSION {
        return Err(SketchError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if kind != expect_kind {
        return Err(SketchError::Corrupt(format!(
            "{} shard (kind {kind}) where a {} shard (kind {expect_kind}) was expected",
            kind_name(kind),
            kind_name(expect_kind)
        )));
    }
    let count_field = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let count = wire_len(count_field, "record count")?;

    let mut payloads = Vec::with_capacity(count.min(bytes.len() / 12));
    let mut pos = HEADER_LEN;
    for record in 0..u64::from(count_field) {
        let available = bytes.len() - pos;
        if available < 4 {
            return Err(SketchError::Truncated {
                context: "record length prefix",
                needed: 4,
                available,
            });
        }
        let len = wire_len(
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")),
            "record length",
        )?;
        pos += 4;
        let available = bytes.len() - pos;
        // Length is validated against the remaining bytes *before* any
        // slicing or allocation, so a corrupted length prefix fails as
        // Truncated instead of panicking or reserving gigabytes.
        let needed = len.checked_add(8).ok_or(SketchError::Truncated {
            context: "record payload + checksum",
            needed: usize::MAX,
            available,
        })?;
        if needed > available {
            return Err(SketchError::Truncated {
                context: "record payload + checksum",
                needed,
                available,
            });
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        let stored = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        let computed = checksum(payload);
        if stored != computed {
            return Err(SketchError::ChecksumMismatch {
                record,
                stored,
                computed,
            });
        }
        payloads.push(payload);
    }
    if pos != bytes.len() {
        return Err(SketchError::Corrupt(format!(
            "{} trailing bytes after {count} records",
            bytes.len() - pos
        )));
    }
    Ok(payloads)
}

/// Encode sketches into base-shard bytes (header + checksummed records).
///
/// # Errors
///
/// [`SketchError::Corrupt`] if a sketch holds non-finite values or the
/// record count exceeds `u32`.
pub fn encode_shard(sketches: &[CorrelationSketch]) -> Result<Vec<u8>, SketchError> {
    let payloads = sketches
        .iter()
        .map(CorrelationSketch::to_bytes)
        .collect::<Result<Vec<_>, _>>()?;
    encode_records(KIND_BASE, &payloads)
}

/// Decode base-shard bytes, verifying magic, version, kind, every record
/// checksum (before parsing the payload), and exact end-of-file.
///
/// # Errors
///
/// Typed [`SketchError`] variants: [`SketchError::BadMagic`],
/// [`SketchError::UnsupportedVersion`], [`SketchError::Truncated`],
/// [`SketchError::ChecksumMismatch`], or [`SketchError::Corrupt`] for a
/// non-base kind (including a delta shard where a base shard was
/// expected), record-count mismatches, and payload decode failures.
pub fn decode_shard(bytes: &[u8]) -> Result<Vec<CorrelationSketch>, SketchError> {
    decode_records(bytes, KIND_BASE)?
        .into_iter()
        .map(CorrelationSketch::from_bytes)
        .collect()
}

/// Encode delta records (appends and tombstones, in log order) into
/// delta-shard bytes.
///
/// # Errors
///
/// [`SketchError::Corrupt`] on unencodable sketches, empty tombstone
/// ids, or a record count exceeding `u32`.
pub fn encode_delta_shard(records: &[DeltaRecord]) -> Result<Vec<u8>, SketchError> {
    let payloads = records
        .iter()
        .map(|r| {
            let mut payload = Vec::new();
            r.write_bytes(&mut payload)?;
            Ok(payload)
        })
        .collect::<Result<Vec<_>, SketchError>>()?;
    encode_records(KIND_DELTA, &payloads)
}

/// Decode delta-shard bytes with the same validation discipline as
/// [`decode_shard`] (checksums verified before any payload parse), then
/// parse each tagged record.
///
/// # Errors
///
/// The same typed [`SketchError`] variants as [`decode_shard`], plus
/// [`SketchError::Corrupt`] for unknown record tags and malformed
/// tombstone bodies.
pub fn decode_delta_shard(bytes: &[u8]) -> Result<Vec<DeltaRecord>, SketchError> {
    decode_records(bytes, KIND_DELTA)?
        .into_iter()
        .map(DeltaRecord::from_bytes)
        .collect()
}

/// Decode only the record *heads* of base-shard bytes — each sketch's id
/// and build configuration — with the container validated exactly as
/// [`decode_shard`] validates it (every record checksum included) and no
/// entry decoded.
///
/// # Errors
///
/// As [`decode_shard`], minus what only a full payload decode finds.
pub fn decode_shard_heads(bytes: &[u8]) -> Result<Vec<SketchHead<'_>>, SketchError> {
    decode_records(bytes, KIND_BASE)?
        .into_iter()
        .map(SketchHead::from_bytes)
        .collect()
}

/// Decode only the record *heads* of delta-shard bytes — which id each
/// record appends (under which configuration) or retires — with the
/// container validated exactly as [`decode_delta_shard`] validates it
/// (every record checksum included) and no entry decoded.
///
/// # Errors
///
/// As [`decode_delta_shard`], minus what only a full payload decode of
/// an appended sketch finds.
pub fn decode_delta_heads(bytes: &[u8]) -> Result<Vec<DeltaHead<'_>>, SketchError> {
    decode_records(bytes, KIND_DELTA)?
        .into_iter()
        .map(DeltaHead::from_bytes)
        .collect()
}

/// Write one base shard file.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure, [`StoreError::Sketch`] on
/// unencodable sketches.
pub fn write_shard(path: &Path, sketches: &[CorrelationSketch]) -> Result<(), StoreError> {
    let bytes = encode_shard(sketches)?;
    std::fs::write(path, bytes).map_err(StoreError::io(path))
}

/// Read and fully validate one base shard file.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure, [`StoreError::Sketch`] with
/// a typed corruption variant on invalid bytes (see [`decode_shard`]).
pub fn read_shard(path: &Path) -> Result<Vec<CorrelationSketch>, StoreError> {
    let bytes = std::fs::read(path).map_err(StoreError::io(path))?;
    decode_shard(&bytes).map_err(StoreError::Sketch)
}

/// Write one delta shard file.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure, [`StoreError::Sketch`] on
/// unencodable records.
pub fn write_delta_shard(path: &Path, records: &[DeltaRecord]) -> Result<(), StoreError> {
    let bytes = encode_delta_shard(records)?;
    std::fs::write(path, bytes).map_err(StoreError::io(path))
}

/// Read and fully validate one delta shard file.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure, [`StoreError::Sketch`] with
/// a typed corruption variant on invalid bytes (see
/// [`decode_delta_shard`]).
pub(crate) fn read_delta_shard(path: &Path) -> Result<Vec<DeltaRecord>, StoreError> {
    let bytes = std::fs::read(path).map_err(StoreError::io(path))?;
    decode_delta_shard(&bytes).map_err(StoreError::Sketch)
}

#[cfg(test)]
#[allow(clippy::as_conversions)] // R6 exempts tests
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn sketches(n: usize) -> Vec<CorrelationSketch> {
        let b = SketchBuilder::new(SketchConfig::with_size(16));
        (0..n)
            .map(|t| {
                b.build(&ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (0..100).map(|i| format!("key-{i}")).collect(),
                    (0..100).map(|i| (i + t) as f64).collect(),
                ))
            })
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sketches(5);
        assert_eq!(decode_shard(&encode_shard(&s).unwrap()).unwrap(), s);
        let empty: Vec<CorrelationSketch> = Vec::new();
        assert_eq!(decode_shard(&encode_shard(&empty).unwrap()).unwrap(), empty);
    }

    #[test]
    fn delta_encode_decode_roundtrip() {
        let s = sketches(3);
        let records = vec![
            DeltaRecord::Sketch(s[0].clone()),
            DeltaRecord::Tombstone("t9/k/v".into()),
            DeltaRecord::Sketch(s[2].clone()),
        ];
        let bytes = encode_delta_shard(&records).unwrap();
        assert_eq!(decode_delta_shard(&bytes).unwrap(), records);
        let empty: Vec<DeltaRecord> = Vec::new();
        assert_eq!(
            decode_delta_shard(&encode_delta_shard(&empty).unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn shard_kinds_are_not_interchangeable() {
        let s = sketches(2);
        let base = encode_shard(&s).unwrap();
        let delta = encode_delta_shard(&[DeltaRecord::Sketch(s[0].clone())]).unwrap();
        let err = decode_delta_shard(&base).unwrap_err();
        assert!(
            matches!(&err, SketchError::Corrupt(msg) if msg.contains("base shard")),
            "{err}"
        );
        let err = decode_shard(&delta).unwrap_err();
        assert!(
            matches!(&err, SketchError::Corrupt(msg) if msg.contains("delta shard")),
            "{err}"
        );
    }

    #[test]
    fn header_fields_are_checked() {
        let s = sketches(2);
        let good = encode_shard(&s).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_shard(&bad),
            Err(SketchError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_shard(&bad),
            Err(SketchError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));

        let mut bad = good.clone();
        bad[6] = 1; // base shard flipped to the delta kind
        assert!(matches!(decode_shard(&bad), Err(SketchError::Corrupt(_))));

        let mut bad = good.clone();
        bad[7] = 1; // unknown kind (256)
        assert!(matches!(decode_shard(&bad), Err(SketchError::Corrupt(_))));

        let mut bad = good;
        bad[8] ^= 0x01; // record count off by one
        assert!(decode_shard(&bad).is_err());
    }

    #[test]
    fn checksum_catches_payload_tampering() {
        let s = sketches(3);
        let mut bytes = encode_shard(&s).unwrap();
        // Flip a byte well inside the first record's payload.
        bytes[HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            decode_shard(&bytes),
            Err(SketchError::ChecksumMismatch { record: 0, .. })
        ));
    }

    #[test]
    fn checksum_catches_delta_tag_tampering() {
        let s = sketches(1);
        let mut bytes = encode_delta_shard(&[DeltaRecord::Sketch(s[0].clone())]).unwrap();
        // The tag byte is the first payload byte (after the header and
        // the 4-byte record length). Flipping it must fail the checksum
        // before any mis-tagged parse is attempted.
        bytes[HEADER_LEN + 4] ^= 0x01;
        assert!(matches!(
            decode_delta_shard(&bytes),
            Err(SketchError::ChecksumMismatch { record: 0, .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cskb-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.cskb");
        let s = sketches(4);
        write_shard(&path, &s).unwrap();
        assert_eq!(read_shard(&path).unwrap(), s);
        let delta_path = dir.join("d.cskb");
        let records = vec![
            DeltaRecord::Tombstone(s[0].id().to_string()),
            DeltaRecord::Sketch(s[1].clone()),
        ];
        write_delta_shard(&delta_path, &records).unwrap();
        assert_eq!(read_delta_shard(&delta_path).unwrap(), records);
        let missing = dir.join("missing.cskb");
        assert!(matches!(read_shard(&missing), Err(StoreError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
