//! Corpus partitioning for scatter-gather serving: split one packed
//! corpus into `workers` contiguous, independently servable worker
//! stores, recorded by a small text **partition manifest**
//! (`partition.cskp`).
//!
//! # Determinism and the doc-id contract
//!
//! [`shard_corpus`] reads the source store's *live view* (base
//! survivors in pack order, then surviving appends — the exact order
//! `sketch-index` builds doc ids on) and splits it into `workers`
//! contiguous chunks of `ceil(total / workers)` sketches (trailing
//! workers may be empty). Worker `i` is packed as a fresh
//! generation-0 store in `<out>/worker-{i:04}/`. Because the chunks
//! are contiguous in live-view order, the union of the workers' live
//! views *in worker order* is byte-for-byte the source live view —
//! which is what lets a coordinator map a worker-local doc id to the
//! union doc id by adding the prefix sum of the preceding workers'
//! live counts, and lets the shard-merge oracle prove the merged
//! answer bit-identical to a single-process query over the source.
//!
//! # Partition manifest format (`partition.cskp`)
//!
//! Line-oriented text, like `manifest.cskm`:
//!
//! ```text
//! cskb-partition 1
//! workers <N>
//! source-generation <G>
//! sketches <total>
//! shard <dir-name> <live-count>
//! …one line per worker, in worker order…
//! ```
//!
//! `source-generation` records the source store's generation at split
//! time — provenance only; each worker store starts an independent
//! generation history at 0 and mutates on its own.

use std::path::Path;

use crate::corpus::{pack_corpus, read_corpus_with_manifest, PackOptions};
use crate::error::StoreError;

/// File name of the partition manifest inside a partition directory.
pub(crate) const PARTITION_NAME: &str = "partition.cskp";

/// Partition manifest header tag (first line is `cskb-partition 1`).
const PARTITION_TAG: &str = "cskb-partition";

/// Partition manifest version this build writes.
const PARTITION_VERSION: u16 = 1;

/// One worker store as listed in the partition manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionShard {
    /// Worker store directory name, relative to the partition
    /// directory.
    pub dir: String,
    /// Live sketches packed into this worker at split time.
    pub count: u64,
}

/// The partition manifest [`shard_corpus`] writes: how a corpus was
/// split across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionManifest {
    /// Number of worker stores (equals `shards.len()`).
    pub workers: usize,
    /// The source store's generation when the split was taken.
    pub source_generation: u64,
    /// Total live sketches across all workers at split time.
    pub total: u64,
    /// Worker stores in worker (= live-view) order.
    pub shards: Vec<PartitionShard>,
}

impl PartitionManifest {
    /// Render to the text format.
    #[must_use]
    fn to_text(&self) -> String {
        let mut out = String::with_capacity(96 + 32 * self.shards.len());
        out.push_str(PARTITION_TAG);
        out.push(' ');
        out.push_str(&PARTITION_VERSION.to_string());
        out.push_str("\nworkers ");
        out.push_str(&self.workers.to_string());
        out.push_str("\nsource-generation ");
        out.push_str(&self.source_generation.to_string());
        out.push_str("\nsketches ");
        out.push_str(&self.total.to_string());
        out.push('\n');
        for s in &self.shards {
            out.push_str("shard ");
            out.push_str(&s.dir);
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }
}

/// Directory name of worker `i` inside a partition directory.
#[must_use]
pub(crate) fn worker_dir_name(i: usize) -> String {
    format!("worker-{i:04}")
}

/// Split the packed corpus at `src` into `workers` contiguous worker
/// stores under `out` and write the partition manifest. Worker `i`
/// gets live-view slice `[i·c, (i+1)·c)` with `c = ceil(total /
/// workers)`; trailing workers may be empty (an empty store is still a
/// valid, servable pack). Each worker store is packed with `threads`
/// reader/writer threads (the workspace's deterministic fan-out — the
/// resulting bytes do not depend on `threads`).
///
/// # Errors
///
/// Any [`StoreError`] from reading the source or packing a worker.
///
/// # Panics
///
/// Panics if `workers` is zero (front ends validate user input).
pub fn shard_corpus(
    src: &Path,
    out: &Path,
    workers: usize,
    threads: usize,
) -> Result<PartitionManifest, StoreError> {
    assert!(workers > 0, "cannot partition a corpus across 0 workers");
    let (manifest, sketches) = read_corpus_with_manifest(src, threads)?;
    let chunk = sketches.len().div_ceil(workers).max(1);
    let mut shards = Vec::with_capacity(workers);
    for i in 0..workers {
        let lo = (i * chunk).min(sketches.len());
        let hi = ((i + 1) * chunk).min(sketches.len());
        let dir = worker_dir_name(i);
        pack_corpus(
            &out.join(&dir),
            &sketches[lo..hi],
            &PackOptions {
                threads,
                ..PackOptions::default()
            },
        )?;
        shards.push(PartitionShard {
            dir,
            count: (hi - lo) as u64,
        });
    }
    let partition = PartitionManifest {
        workers,
        source_generation: manifest.generation,
        total: sketches.len() as u64,
        shards,
    };
    let path = out.join(PARTITION_NAME);
    std::fs::write(&path, partition.to_text()).map_err(StoreError::io(path))?;
    Ok(partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::read_corpus;
    use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "cskb-partition-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
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

    fn corpus(n: usize) -> Vec<CorrelationSketch> {
        let b = SketchBuilder::new(SketchConfig::with_size(64));
        (0..n)
            .map(|t| {
                b.build(&ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (0..40).map(|i| format!("key-{}", t * 7 + i)).collect(),
                    (0..40).map(|i| (i as f64) + t as f64).collect(),
                ))
            })
            .collect()
    }

    /// The headline contract: worker live views concatenated in worker
    /// order are byte-identical to the source live view, at several
    /// worker counts including more workers than sketches.
    #[test]
    fn partition_concatenates_back_to_the_source_live_view() {
        let tmp = TempDir::new("roundtrip");
        let sketches = corpus(10);
        let src = tmp.0.join("src");
        pack_corpus(&src, &sketches, &PackOptions::default()).unwrap();
        for workers in [1usize, 2, 3, 7, 13] {
            let out = tmp.0.join(format!("split-{workers}"));
            let part = shard_corpus(&src, &out, workers, 2).unwrap();
            assert_eq!(part.workers, workers);
            assert_eq!(part.total, 10);
            assert_eq!(part.source_generation, 0);
            let mut union = Vec::new();
            for shard in &part.shards {
                let got = read_corpus(&out.join(&shard.dir), 1).unwrap();
                assert_eq!(got.len() as u64, shard.count);
                union.extend(got);
            }
            assert_eq!(union, sketches, "workers={workers}");
        }
    }

    /// Partitioning a mutated store splits its *live view* and records
    /// the source generation it saw.
    #[test]
    fn partition_reads_the_live_view_of_a_mutated_store() {
        let tmp = TempDir::new("mutated");
        let sketches = corpus(6);
        let src = tmp.0.join("src");
        pack_corpus(&src, &sketches[..4], &PackOptions::default()).unwrap();
        crate::corpus::append_corpus(&src, &sketches[4..], 1).unwrap();
        let victim = sketches[1].id().to_string();
        crate::corpus::remove_from_corpus(&src, &[victim], 1).unwrap();
        let out = tmp.0.join("split");
        let part = shard_corpus(&src, &out, 2, 1).unwrap();
        assert_eq!(part.source_generation, 2);
        assert_eq!(part.total, 5);
        let expected = read_corpus(&src, 1).unwrap();
        let mut union = Vec::new();
        for shard in &part.shards {
            union.extend(read_corpus(&out.join(&shard.dir), 1).unwrap());
        }
        assert_eq!(union, expected);
    }

    /// `partition.cskp` is exactly the documented text: header, the
    /// three counts, then one `shard` line per worker in worker order,
    /// chunks of `ceil(total / workers)`.
    #[test]
    fn partition_manifest_file_is_the_documented_text() {
        let tmp = TempDir::new("golden");
        let src = tmp.0.join("src");
        pack_corpus(&src, &corpus(10), &PackOptions::default()).unwrap();
        let out = tmp.0.join("split");
        shard_corpus(&src, &out, 3, 1).unwrap();
        let bytes = std::fs::read(out.join(PARTITION_NAME)).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "cskb-partition 1\nworkers 3\nsource-generation 0\nsketches 10\n\
             shard worker-0000 4\nshard worker-0001 4\nshard worker-0002 2\n"
        );
    }
}
