//! The corpus manifest (`manifest.cskm`): a small line-oriented text file
//! naming every shard and its record count, in corpus order. Version 2
//! adds generation-stamped delta shards on top of the base shard table.
//! See the crate docs for the exact format.

use std::path::Path;

use correlation_sketches::SketchError;

use crate::error::StoreError;

/// File name of the manifest inside a corpus directory.
pub const MANIFEST_NAME: &str = "manifest.cskm";

/// Manifest header tag (first line is `cskb-manifest <version>`).
const HEADER_TAG: &str = "cskb-manifest";

/// Newest manifest version this build writes and reads. Version 1 (the
/// pre-delta format) is still written for stores that have never been
/// mutated, and always read.
pub(crate) const MANIFEST_VERSION: u16 = 2;

/// One base shard as listed in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard file name, relative to the corpus directory.
    pub file: String,
    /// Records the shard must contain (cross-checked against the shard
    /// header at read time).
    pub count: u64,
}

/// One delta shard as listed in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMeta {
    /// Delta shard file name, relative to the corpus directory.
    pub file: String,
    /// Records (appends + tombstones) the shard must contain.
    pub records: u64,
    /// The generation this delta produced. Strictly increasing across
    /// the delta list, always greater than [`Manifest::base_generation`].
    pub generation: u64,
}

/// Parsed corpus manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Total *live* records after replaying all deltas over the base
    /// shards (cross-checked against the replay at read time).
    pub total: u64,
    /// Latest generation in the store: `base_generation` when no deltas
    /// are pending, otherwise the last delta's generation. Every mutation
    /// (append, remove, compact) advances it by one; it never goes
    /// backwards for the lifetime of a store directory.
    pub generation: u64,
    /// Generation at which the base shards were last rewritten: `0` for
    /// a fresh pack, the compacting generation after a compact.
    pub base_generation: u64,
    /// Base shards in corpus order.
    pub shards: Vec<ShardMeta>,
    /// Delta shards in generation order (`base_generation` excluded,
    /// strictly increasing, ending at `generation`).
    pub deltas: Vec<DeltaMeta>,
}

impl Manifest {
    /// A generation-zero manifest over base shards only — what a fresh
    /// [`crate::pack_corpus`] writes.
    #[must_use]
    pub fn base(total: u64, shards: Vec<ShardMeta>) -> Self {
        Self {
            total,
            generation: 0,
            base_generation: 0,
            shards,
            deltas: Vec::new(),
        }
    }

    /// Render to the text format. A never-mutated store (generation 0, no
    /// deltas) renders as version 1, byte-identical to the pre-delta
    /// format; anything else renders as version 2.
    #[must_use]
    pub(crate) fn to_text(&self) -> String {
        let v2 = self.generation != 0 || self.base_generation != 0 || !self.deltas.is_empty();
        let mut out = String::with_capacity(96 + 40 * (self.shards.len() + self.deltas.len()));
        out.push_str(HEADER_TAG);
        if v2 {
            out.push_str(" 2\ngeneration ");
            out.push_str(&self.generation.to_string());
            out.push_str("\nbase ");
            out.push_str(&self.base_generation.to_string());
            out.push_str("\nsketches ");
        } else {
            out.push_str(" 1\nsketches ");
        }
        out.push_str(&self.total.to_string());
        out.push('\n');
        for s in &self.shards {
            out.push_str("shard ");
            out.push_str(&s.file);
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        for d in &self.deltas {
            out.push_str("delta ");
            out.push_str(&d.file);
            out.push(' ');
            out.push_str(&d.records.to_string());
            out.push(' ');
            out.push_str(&d.generation.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse the text format (version 1 or 2), validating structure,
    /// totals, and generation progression.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] on malformed lines,
    /// [`SketchError::UnsupportedVersion`] on a newer manifest version,
    /// [`SketchError::StaleGeneration`] when delta generations repeat,
    /// regress, or fail to reach past the base generation.
    pub fn parse(text: &str) -> Result<Self, SketchError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| SketchError::Corrupt("empty manifest".into()))?;
        let version = header
            .strip_prefix(HEADER_TAG)
            .map(str::trim)
            .and_then(|v| v.parse::<u16>().ok())
            .ok_or_else(|| SketchError::Corrupt(format!("bad manifest header '{header}'")))?;
        if !(1..=MANIFEST_VERSION).contains(&version) {
            return Err(SketchError::UnsupportedVersion {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }

        let mut field = |name: &'static str| -> Result<u64, SketchError> {
            let line = lines
                .next()
                .ok_or_else(|| SketchError::Corrupt(format!("manifest missing '{name}' line")))?;
            line.strip_prefix(name)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| SketchError::Corrupt(format!("bad manifest {name} line '{line}'")))
        };
        let (generation, base_generation) = if version >= 2 {
            (field("generation ")?, field("base ")?)
        } else {
            (0, 0)
        };
        let total = field("sketches ")?;
        if base_generation > generation {
            return Err(SketchError::Corrupt(format!(
                "base generation {base_generation} is beyond the store generation {generation}"
            )));
        }

        let check_file = |file: &str| -> Result<(), SketchError> {
            if file.is_empty() || file.contains('/') || file.contains('\\') {
                return Err(SketchError::Corrupt(format!(
                    "shard file name '{file}' must be a bare file name"
                )));
            }
            Ok(())
        };

        let mut shards: Vec<ShardMeta> = Vec::new();
        let mut deltas: Vec<DeltaMeta> = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("shard ") {
                if !deltas.is_empty() {
                    return Err(SketchError::Corrupt(format!(
                        "base shard line '{line}' after delta lines"
                    )));
                }
                let (file, count) = rest.rsplit_once(' ').ok_or_else(|| {
                    SketchError::Corrupt(format!("bad manifest shard line '{line}'"))
                })?;
                let count: u64 = count.parse().map_err(|e| {
                    SketchError::Corrupt(format!("bad shard count in '{line}': {e}"))
                })?;
                check_file(file)?;
                shards.push(ShardMeta {
                    file: file.to_string(),
                    count,
                });
            } else if let Some(rest) = line.strip_prefix("delta ") {
                if version < 2 {
                    return Err(SketchError::Corrupt(format!(
                        "delta line '{line}' in a version-1 manifest"
                    )));
                }
                let mut parts = rest.split(' ');
                let (file, records, gen) = (|| {
                    let file = parts.next()?;
                    let records = parts.next()?.parse::<u64>().ok()?;
                    let gen = parts.next()?.parse::<u64>().ok()?;
                    parts.next().is_none().then_some((file, records, gen))
                })()
                .ok_or_else(|| SketchError::Corrupt(format!("bad manifest delta line '{line}'")))?;
                check_file(file)?;
                let expected = deltas
                    .last()
                    .map_or(base_generation + 1, |d: &DeltaMeta| d.generation + 1);
                if gen < expected {
                    return Err(SketchError::StaleGeneration {
                        found: gen,
                        expected,
                    });
                }
                if gen > generation {
                    return Err(SketchError::Corrupt(format!(
                        "delta generation {gen} is beyond the store generation {generation}"
                    )));
                }
                deltas.push(DeltaMeta {
                    file: file.to_string(),
                    records,
                    generation: gen,
                });
            } else {
                return Err(SketchError::Corrupt(format!(
                    "unexpected manifest line '{line}'"
                )));
            }
        }

        let mut seen: Vec<&str> = Vec::with_capacity(shards.len() + deltas.len());
        for file in shards
            .iter()
            .map(|s| s.file.as_str())
            .chain(deltas.iter().map(|d| d.file.as_str()))
        {
            if seen.contains(&file) {
                return Err(SketchError::Corrupt(format!(
                    "shard file '{file}' listed twice in manifest"
                )));
            }
            seen.push(file);
        }

        let latest = deltas.last().map_or(base_generation, |d| d.generation);
        if latest != generation {
            return Err(SketchError::StaleGeneration {
                found: latest,
                expected: generation,
            });
        }
        if deltas.is_empty() {
            // Without deltas the live total is exactly the base shard sum.
            let sum: u64 = shards.iter().map(|s| s.count).sum();
            if sum != total {
                return Err(SketchError::Corrupt(format!(
                    "manifest totals disagree: header says {total} sketches, \
                     shard lines sum to {sum}"
                )));
            }
        }
        Ok(Self {
            total,
            generation,
            base_generation,
            shards,
            deltas,
        })
    }

    /// Load `manifest.cskm` from a corpus directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingManifest`] when the directory holds no
    /// manifest at all (missing, empty, or not a store),
    /// [`StoreError::Io`] when unreadable for environmental reasons,
    /// [`StoreError::Sketch`] when malformed.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingManifest {
                    dir: dir.to_path_buf(),
                }
            } else {
                StoreError::io(path)(e)
            }
        })?;
        Self::parse(&text).map_err(StoreError::Sketch)
    }

    /// Write `manifest.cskm` into a corpus directory, atomically: the
    /// text lands in a temp file first and is renamed into place, so a
    /// crash mid-save can never leave a half-written (hence unreadable)
    /// manifest over a good store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        std::fs::write(&tmp, self.to_text()).map_err(StoreError::io(&tmp))?;
        let path = dir.join(MANIFEST_NAME);
        std::fs::rename(&tmp, &path).map_err(StoreError::io(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest::base(
            7,
            vec![
                ShardMeta {
                    file: "shard-0000.cskb".into(),
                    count: 4,
                },
                ShardMeta {
                    file: "shard-0001.cskb".into(),
                    count: 3,
                },
            ],
        )
    }

    fn sample_v2() -> Manifest {
        Manifest {
            total: 8,
            generation: 3,
            base_generation: 1,
            shards: vec![ShardMeta {
                file: "shard-0000.cskb".into(),
                count: 6,
            }],
            deltas: vec![
                DeltaMeta {
                    file: "delta-000002.cskb".into(),
                    records: 3,
                    generation: 2,
                },
                DeltaMeta {
                    file: "delta-000003.cskb".into(),
                    records: 1,
                    generation: 3,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        assert!(m.to_text().starts_with("cskb-manifest 1\n"));
        assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
        let empty = Manifest::base(0, vec![]);
        assert_eq!(Manifest::parse(&empty.to_text()).unwrap(), empty);
    }

    #[test]
    fn v2_text_roundtrip() {
        let m = sample_v2();
        assert!(m.to_text().starts_with("cskb-manifest 2\n"));
        assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
        // A compacted store: no deltas but a non-zero generation.
        let compacted = Manifest {
            total: 7,
            generation: 4,
            base_generation: 4,
            deltas: vec![],
            ..sample()
        };
        assert_eq!(Manifest::parse(&compacted.to_text()).unwrap(), compacted);
    }

    #[test]
    fn malformed_manifests_are_typed() {
        assert!(matches!(Manifest::parse(""), Err(SketchError::Corrupt(_))));
        assert!(matches!(
            Manifest::parse("cskb-manifest 3\nsketches 0\n"),
            Err(SketchError::UnsupportedVersion { found: 3, .. })
        ));
        assert!(matches!(
            Manifest::parse("cskb-manifest 1\nsketches nope\n"),
            Err(SketchError::Corrupt(_))
        ));
        assert!(matches!(
            Manifest::parse("cskb-manifest 1\nsketches 0\nbogus line\n"),
            Err(SketchError::Corrupt(_))
        ));
        // Totals must agree with the shard lines.
        assert!(matches!(
            Manifest::parse("cskb-manifest 1\nsketches 5\nshard a.cskb 4\n"),
            Err(SketchError::Corrupt(_))
        ));
        // Delta lines belong to version 2.
        assert!(matches!(
            Manifest::parse("cskb-manifest 1\nsketches 0\ndelta d.cskb 1 1\n"),
            Err(SketchError::Corrupt(_))
        ));
        // Duplicate shard files are rejected (as manifest corruption —
        // DuplicateId is reserved for sketch ids).
        let err = Manifest::parse("cskb-manifest 1\nsketches 4\nshard a.cskb 2\nshard a.cskb 2\n")
            .unwrap_err();
        assert!(
            matches!(&err, SketchError::Corrupt(msg) if msg.contains("listed twice")),
            "{err}"
        );
        // Path traversal in shard names is rejected.
        assert!(matches!(
            Manifest::parse("cskb-manifest 1\nsketches 2\nshard ../evil.cskb 2\n"),
            Err(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn generation_progression_is_enforced() {
        let head = "cskb-manifest 2\ngeneration 2\nbase 0\nsketches 0\n";
        // Duplicate generation.
        let err =
            Manifest::parse(&format!("{head}delta a.cskb 1 1\ndelta b.cskb 1 1\n")).unwrap_err();
        assert_eq!(
            err,
            SketchError::StaleGeneration {
                found: 1,
                expected: 2
            }
        );
        // Regressing generation.
        let text = "cskb-manifest 2\ngeneration 3\nbase 0\nsketches 0\n\
                    delta a.cskb 1 3\ndelta b.cskb 1 2\n";
        assert!(matches!(
            Manifest::parse(text),
            Err(SketchError::StaleGeneration { .. })
        ));
        // A delta at or below the base generation is stale.
        let text = "cskb-manifest 2\ngeneration 2\nbase 2\nsketches 0\ndelta a.cskb 1 2\n";
        assert!(matches!(
            Manifest::parse(text),
            Err(SketchError::StaleGeneration { .. })
        ));
        // The last delta must reach the store generation.
        let err = Manifest::parse(&format!("{head}delta a.cskb 1 1\n")).unwrap_err();
        assert_eq!(
            err,
            SketchError::StaleGeneration {
                found: 1,
                expected: 2
            }
        );
        // Base generation cannot exceed the store generation.
        assert!(matches!(
            Manifest::parse("cskb-manifest 2\ngeneration 1\nbase 2\nsketches 0\n"),
            Err(SketchError::Corrupt(_))
        ));
        // Base shard lines cannot follow delta lines.
        let text = "cskb-manifest 2\ngeneration 1\nbase 0\nsketches 0\n\
                    delta a.cskb 1 1\nshard b.cskb 0\n";
        assert!(matches!(
            Manifest::parse(text),
            Err(SketchError::Corrupt(_))
        ));
    }
}
