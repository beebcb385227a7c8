//! Cheap store metadata: the manifest-level shape of a corpus directory
//! without loading (or validating) the base shards.
//!
//! [`stat_corpus`] reads the manifest, the id directory and the delta
//! shards only — delta shards are small (one per mutation) but must be
//! opened to split their records into appends and tombstones, which
//! takes their record heads, not their sketches. This is the data behind
//! `corrsketch corpus info` and the query server's `GET /corpus`
//! endpoint; both need the store's generation and pending-delta shape on
//! every poll, neither wants to pay a full checksum-verified corpus load
//! for it.

use std::path::Path;

use correlation_sketches::{json, DeltaHead};

use crate::directory::{self, DirectoryState};
use crate::error::StoreError;
use crate::manifest::Manifest;
use crate::shard::decode_delta_heads;

/// One base shard: manifest entry plus its current on-disk size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard file name, relative to the corpus directory.
    pub file: String,
    /// Records in the shard (from the manifest).
    pub records: u64,
    /// File size in bytes (0 if the file vanished under us).
    pub bytes: u64,
}

/// One delta shard: manifest entry, record split, and on-disk size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Delta file name, relative to the corpus directory.
    pub file: String,
    /// Total records (appends + tombstones) in the shard.
    pub records: u64,
    /// How many of those records are tombstones.
    pub tombstones: u64,
    /// The generation this delta produced.
    pub generation: u64,
    /// File size in bytes (0 if the file vanished under us).
    pub bytes: u64,
}

/// The manifest-level shape of a corpus store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Latest store generation.
    pub generation: u64,
    /// Generation at which the base shards were last rewritten.
    pub base_generation: u64,
    /// Live sketches after replaying all deltas.
    pub live: u64,
    /// Base shards in corpus order.
    pub shards: Vec<ShardInfo>,
    /// Delta shards in generation order.
    pub deltas: Vec<DeltaInfo>,
    /// Whether the id directory verifies — that is, whether a write
    /// costs the delta (`Ok`) or a full load of the base (otherwise).
    pub directory: DirectoryState,
    /// The id directory's size in bytes (0 when absent).
    pub directory_bytes: u64,
}

impl StoreInfo {
    /// Records across the base shards (live + not-yet-reclaimed dead).
    #[must_use]
    pub fn base_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Pending delta appends (reclaimable into base shards by a compact).
    #[must_use]
    pub fn pending_appends(&self) -> u64 {
        self.deltas.iter().map(|d| d.records - d.tombstones).sum()
    }

    /// Pending delta tombstones.
    #[must_use]
    pub fn pending_tombstones(&self) -> u64 {
        self.deltas.iter().map(|d| d.tombstones).sum()
    }

    /// Total bytes of every shard and delta file on disk, and of the id
    /// directory beside them.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum::<u64>()
            + self.deltas.iter().map(|d| d.bytes).sum::<u64>()
            + self.directory_bytes
    }

    /// Render as one deterministic JSON object — the payload of
    /// `corrsketch corpus info --json` and of the server's `GET /corpus`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192 + 64 * (self.shards.len() + self.deltas.len()));
        out.push_str("{\"generation\":");
        out.push_str(&self.generation.to_string());
        out.push_str(",\"base_generation\":");
        out.push_str(&self.base_generation.to_string());
        out.push_str(",\"live\":");
        out.push_str(&self.live.to_string());
        out.push_str(",\"base_records\":");
        out.push_str(&self.base_records().to_string());
        out.push_str(",\"pending_appends\":");
        out.push_str(&self.pending_appends().to_string());
        out.push_str(",\"pending_tombstones\":");
        out.push_str(&self.pending_tombstones().to_string());
        out.push_str(",\"disk_bytes\":");
        out.push_str(&self.disk_bytes().to_string());
        out.push_str(",\"id_directory\":{\"state\":\"");
        out.push_str(self.directory.as_str());
        out.push_str("\",\"bytes\":");
        out.push_str(&self.directory_bytes.to_string());
        out.push('}');
        out.push_str(",\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            json::push_string(&mut out, &s.file);
            out.push_str(",\"records\":");
            out.push_str(&s.records.to_string());
            out.push_str(",\"bytes\":");
            out.push_str(&s.bytes.to_string());
            out.push('}');
        }
        out.push_str("],\"deltas\":[");
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            json::push_string(&mut out, &d.file);
            out.push_str(",\"records\":");
            out.push_str(&d.records.to_string());
            out.push_str(",\"tombstones\":");
            out.push_str(&d.tombstones.to_string());
            out.push_str(",\"generation\":");
            out.push_str(&d.generation.to_string());
            out.push_str(",\"bytes\":");
            out.push_str(&d.bytes.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Read a store's manifest-level shape: the manifest, the id directory,
/// and the record heads of every delta shard (to split records into
/// appends and tombstones). Base shards are *not* opened — use
/// [`crate::read_corpus`] when full checksum validation is wanted.
///
/// # Errors
///
/// [`StoreError::MissingManifest`] when the directory is not a store,
/// plus the usual typed manifest/delta corruption and I/O errors.
pub fn stat_corpus(dir: &Path) -> Result<StoreInfo, StoreError> {
    let manifest = Manifest::load(dir)?;
    let file_bytes = |file: &str| {
        std::fs::metadata(dir.join(file))
            .map(|m| m.len())
            .unwrap_or(0)
    };
    let shards = manifest
        .shards
        .iter()
        .map(|s| ShardInfo {
            file: s.file.clone(),
            records: s.count,
            bytes: file_bytes(&s.file),
        })
        .collect();
    let mut deltas = Vec::with_capacity(manifest.deltas.len());
    for d in &manifest.deltas {
        let path = dir.join(&d.file);
        let bytes = std::fs::read(&path).map_err(StoreError::io(path))?;
        let tombstones = decode_delta_heads(&bytes)?
            .iter()
            .filter(|head| matches!(head, DeltaHead::Tombstone(_)))
            .count() as u64;
        deltas.push(DeltaInfo {
            file: d.file.clone(),
            records: d.records,
            tombstones,
            generation: d.generation,
            bytes: file_bytes(&d.file),
        });
    }
    let (directory, directory_bytes) = directory::stat(dir, &manifest);
    Ok(StoreInfo {
        generation: manifest.generation,
        base_generation: manifest.base_generation,
        live: manifest.total,
        shards,
        deltas,
        directory,
        directory_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn sketch(
        table: &str,
        range: std::ops::Range<usize>,
    ) -> correlation_sketches::CorrelationSketch {
        SketchBuilder::new(SketchConfig::with_size(32)).build(&ColumnPair::new(
            table,
            "k",
            "v",
            range.clone().map(|i| format!("key-{i}")).collect(),
            range.map(|i| i as f64).collect(),
        ))
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("sketch-store-info-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn stat_reflects_pack_append_rm_compact() {
        let dir = TempDir::new("lifecycle");
        let sketches: Vec<_> = (0..6).map(|t| sketch(&format!("t{t}"), 0..40)).collect();
        crate::pack_corpus(
            &dir.0,
            &sketches,
            &crate::PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();

        let info = stat_corpus(&dir.0).unwrap();
        assert_eq!(info.generation, 0);
        assert_eq!(info.live, 6);
        assert_eq!(info.shards.len(), 2);
        assert!(info.deltas.is_empty());
        assert_eq!(info.base_records(), 6);
        assert_eq!(info.directory, DirectoryState::Ok);
        // On-disk bytes are counted honestly: the directory is a file too.
        let listed: u64 = ["shard-0000.cskb", "shard-0001.cskb", "ids.cskd"]
            .map(|f| std::fs::metadata(dir.0.join(f)).unwrap().len())
            .iter()
            .sum();
        assert_eq!(info.disk_bytes(), listed);
        assert!(info.directory_bytes > 0);

        crate::append_corpus(&dir.0, &[sketch("extra", 0..40)], 1).unwrap();
        crate::remove_from_corpus(&dir.0, &["t0/k/v".to_string()], 1).unwrap();
        let info = stat_corpus(&dir.0).unwrap();
        assert_eq!(info.generation, 2);
        assert_eq!(info.live, 6);
        assert_eq!(info.pending_appends(), 1);
        assert_eq!(info.pending_tombstones(), 1);
        assert_eq!(info.deltas.len(), 2);

        crate::compact_corpus(
            &dir.0,
            &crate::PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
        let info = stat_corpus(&dir.0).unwrap();
        assert_eq!(info.generation, 3);
        assert_eq!(info.base_generation, 3);
        assert_eq!(info.live, 6);
        assert!(info.deltas.is_empty());
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let dir = TempDir::new("json");
        crate::pack_corpus(
            &dir.0,
            &[sketch("a", 0..30)],
            &crate::PackOptions {
                shards: 1,
                threads: 1,
            },
        )
        .unwrap();
        crate::remove_from_corpus(&dir.0, &["a/k/v".to_string()], 1).unwrap();
        let info = stat_corpus(&dir.0).unwrap();
        let text = info.to_json();
        let v = correlation_sketches::json::parse(&text).unwrap();
        let obj = v.as_object("info").unwrap();
        assert_eq!(obj.get("generation").unwrap().as_u64("g").unwrap(), 1);
        assert_eq!(obj.get("live").unwrap().as_u64("live").unwrap(), 0);
        assert_eq!(
            obj.get("pending_tombstones").unwrap().as_u64("t").unwrap(),
            1
        );
        assert_eq!(
            obj.get("deltas").unwrap().as_array("deltas").unwrap().len(),
            1
        );
        let directory = obj.get("id_directory").unwrap().as_object("d").unwrap();
        assert_eq!(directory.get("state").unwrap().as_str("s").unwrap(), "ok");
        assert_eq!(
            directory.get("bytes").unwrap().as_u64("b").unwrap(),
            info.directory_bytes
        );
    }

    #[test]
    fn missing_dir_is_typed_not_io() {
        let err = stat_corpus(Path::new("/definitely/not/a/store")).unwrap_err();
        assert!(matches!(err, StoreError::MissingManifest { .. }));
        let msg = err.to_string();
        assert!(msg.contains("manifest.cskm"), "{msg}");
        assert!(msg.contains("not a packed store"), "{msg}");
    }
}
