//! The **id directory** (`ids.cskd`): the base records' ids — in shard
//! order, and indexed in sorted order — and the corpus hasher in one
//! small checksummed file beside the base shards, so a write can ask
//! which ids are in the base without opening a base shard, or visiting
//! every id. See the crate docs for the byte layout and its place in the
//! write order.
//!
//! The directory is derived data. It is *used* only when it
//! verifies — whole-file checksum, then its stamp
//! (base generation, record count, byte length of every base shard)
//! against the manifest and an `O(#shards)` stat — and a directory that
//! does not verify is exactly as good as none: the reader falls back to
//! decoding the base shards, which is always right. Every full load
//! cross-checks a verified directory against the ids it decoded, so a
//! directory can be missing or stale, but never silently wrong for long.

use std::path::Path;

use correlation_sketches::{CorrelationSketch, SketchError};
use sketch_hashing::TupleHasher;

use crate::error::StoreError;
use crate::manifest::Manifest;
use crate::shard::checksum;

/// File name of the id directory inside a corpus directory.
pub const DIRECTORY_NAME: &str = "ids.cskd";

/// First four bytes of the file (ASCII `"CSKD"` — Correlation SKetch
/// Directory).
const MAGIC: [u8; 4] = *b"CSKD";

/// Newest directory version this build writes and reads.
const VERSION: u16 = 1;

/// Hasher code of a directory over base records (the record payload's
/// own code) and over none (there is no hasher to name). Any other code,
/// the payload's retired `0` included, does not verify.
const HASHER: u8 = 1;
const NO_HASHER: u8 = 2;

/// Whether a store's id directory can stand in for its base shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryState {
    /// Present and verified against the manifest and the shard sizes:
    /// writes validate against it and open no base shard.
    Ok,
    /// No directory file (a store packed before directories existed):
    /// writes decode the base shards, as they always did.
    Absent,
    /// Present but unusable — stamped for another base, describing
    /// shards of other sizes, truncated, or failing its checksum. Writes
    /// decode the base shards until the next compact rewrites it.
    Stale,
}

impl DirectoryState {
    /// Lower-case name, as `corpus info` and `GET /corpus` print it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Absent => "absent",
            Self::Stale => "stale",
        }
    }
}

/// A verified id directory, borrowing its ids from the file's bytes.
pub(crate) struct IdDirectory<'a> {
    /// The base records' hasher (`None` over an empty base).
    pub(crate) hasher: Option<TupleHasher>,
    /// How many base records the directory lists.
    pub(crate) records: usize,
    /// The id list: one `u32` length + UTF-8 bytes per record, shard order.
    ids: &'a [u8],
    /// The sorted index: one `u32` offset into `ids` per record, ordered
    /// by the id each points at.
    sorted: &'a [u8],
}

/// Split `n` bytes off the front of `bytes`, if it has them.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = bytes.split_at_checked(n)?;
    *bytes = rest;
    Some(head)
}

fn take_u32(bytes: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(bytes, 4)?.try_into().ok()?))
}

fn take_u64(bytes: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(bytes, 8)?.try_into().ok()?))
}

/// Encode the directory of a base about to be published: `sketches` is
/// the whole base in shard order, `shard_lens` the byte length of every
/// shard file in manifest order. `None` when the sketches disagree on
/// the hasher (only a store packed before packing enforced uniformity
/// can hold such a base): there is no single hasher to record, so that
/// base gets no directory and keeps the full-validation write path.
fn encode(
    base_generation: u64,
    shard_lens: &[u64],
    sketches: &[CorrelationSketch],
) -> Result<Option<Vec<u8>>, SketchError> {
    let hasher = sketches.first().map(CorrelationSketch::hasher);
    if sketches.iter().any(|s| Some(s.hasher()) != hasher) {
        return Ok(None);
    }
    let too_many = |what: &str| SketchError::Corrupt(format!("{what} exceeds its wire width"));
    let ids: usize = sketches.iter().map(|s| 8 + s.id().len()).sum();
    let mut out = Vec::with_capacity(43 + 8 * shard_lens.len() + ids);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(if hasher.is_some() { HASHER } else { NO_HASHER });
    out.extend_from_slice(&hasher.map_or(0, |h| h.seed()).to_le_bytes());
    out.extend_from_slice(&base_generation.to_le_bytes());
    let records = u64::try_from(sketches.len()).map_err(|_| too_many("record count"))?;
    out.extend_from_slice(&records.to_le_bytes());
    let shards = u32::try_from(shard_lens.len()).map_err(|_| too_many("shard count"))?;
    out.extend_from_slice(&shards.to_le_bytes());
    for len in shard_lens {
        out.extend_from_slice(&len.to_le_bytes());
    }
    let list_at = out.len();
    let mut sorted = Vec::with_capacity(sketches.len());
    for s in sketches {
        let at = u32::try_from(out.len() - list_at).map_err(|_| too_many("id list"))?;
        sorted.push((s.id(), at));
        let len = u32::try_from(s.id().len()).map_err(|_| too_many("sketch id length"))?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(s.id().as_bytes());
    }
    sorted.sort_unstable();
    for (_, at) in sorted {
        out.extend_from_slice(&at.to_le_bytes());
    }
    out.extend_from_slice(&checksum(&out).to_le_bytes());
    Ok(Some(out))
}

/// Write the id directory of a freshly written base (see [`encode`] for
/// the one base that gets none). Runs after the base shards are on disk
/// and before the manifest that publishes them.
pub(crate) fn write(
    dir: &Path,
    base_generation: u64,
    shard_lens: &[u64],
    sketches: &[CorrelationSketch],
) -> Result<(), StoreError> {
    let Some(bytes) = encode(base_generation, shard_lens, sketches)? else {
        return Ok(());
    };
    let path = dir.join(DIRECTORY_NAME);
    std::fs::write(&path, bytes).map_err(StoreError::io(path))
}

/// The directory file's bytes, if there is such a file. One that exists
/// but cannot be read is as good as one that does not verify: no bytes.
pub(crate) fn read(dir: &Path) -> Option<Vec<u8>> {
    match std::fs::read(dir.join(DIRECTORY_NAME)) {
        Ok(bytes) => Some(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(_) => Some(Vec::new()),
    }
}

impl<'a> IdDirectory<'a> {
    /// Parse `bytes` and verify them against `manifest` and the base
    /// shard files in `dir`. `None` on *any* doubt: the caller's
    /// fallback (decode the base shards) is always correct, so nothing
    /// here needs to say why.
    pub(crate) fn verify(bytes: &'a [u8], dir: &Path, manifest: &Manifest) -> Option<Self> {
        let (mut body, trailer) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
        if checksum(body) != u64::from_le_bytes(trailer.try_into().ok()?) {
            return None;
        }
        let body = &mut body;
        if take(body, 4)? != MAGIC || take(body, 2)? != VERSION.to_le_bytes() {
            return None;
        }
        let hasher_code = take(body, 1)?[0];
        let seed = take_u64(body)?;
        let hasher = match hasher_code {
            HASHER => Some(TupleHasher::new_64(seed)),
            NO_HASHER if seed == 0 => None,
            _ => return None,
        };

        // The stamp: this directory describes exactly the base the
        // manifest lists, and the files on disk are still that size.
        let base_records = manifest
            .shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.count))?;
        if take_u64(body)? != manifest.base_generation
            || take_u64(body)? != base_records
            || usize::try_from(take_u32(body)?).ok()? != manifest.shards.len()
            || hasher.is_none() != (base_records == 0)
        {
            return None;
        }
        for shard in &manifest.shards {
            let on_disk = std::fs::metadata(dir.join(&shard.file)).ok()?.len();
            if take_u64(body)? != on_disk {
                return None;
            }
        }

        // What is left is the id list and, behind it, its sorted index.
        let records = usize::try_from(base_records).ok()?;
        let (ids, sorted) =
            body.split_at_checked(body.len().checked_sub(records.checked_mul(4)?)?)?;
        Some(Self {
            hasher,
            records,
            ids,
            sorted,
        })
    }

    /// The id record at byte `at` of the id list. The checksum vouches
    /// for the offsets this is called with; one that points nowhere all
    /// the same reads as no id rather than as a panic.
    fn id_at(&self, at: usize) -> Option<&'a [u8]> {
        let mut rest = self.ids.get(at..)?;
        let len = usize::try_from(take_u32(&mut rest)?).ok()?;
        take(&mut rest, len)
    }

    /// Entry `entry` of the sorted index: an offset into the id list.
    fn sorted_at(&self, entry: usize) -> Option<usize> {
        let mut rest = self.sorted.get(entry.checked_mul(4)?..)?;
        usize::try_from(take_u32(&mut rest)?).ok()
    }

    /// Is `id` the id of a base record? A binary search of the sorted
    /// index: the one question a write asks of the base, answered without
    /// visiting the ids it does not name.
    pub(crate) fn contains(&self, id: &str) -> bool {
        let (mut lo, mut hi) = (0, self.records);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self
                .sorted_at(mid)
                .and_then(|at| self.id_at(at))
                .cmp(&Some(id.as_bytes()))
            {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// A verified directory must say what the base shards say: the same
    /// ids in the same order under the one hasher, and a sorted index
    /// that is exactly those ids, sorted.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] naming the first record (or index entry)
    /// that disagrees.
    pub(crate) fn cross_check<'s>(
        &self,
        base: impl Iterator<Item = &'s CorrelationSketch>,
    ) -> Result<(), SketchError> {
        let corrupt = |why: String| {
            SketchError::Corrupt(format!(
                "id directory {DIRECTORY_NAME} disagrees with the base shards {why}"
            ))
        };
        let mut starts = Vec::with_capacity(self.records);
        let mut at = 0;
        for (record, sketch) in base.enumerate() {
            let listed = self.id_at(at);
            let disagrees = if listed != Some(sketch.id().as_bytes()) {
                format!(
                    "the directory lists '{}'",
                    String::from_utf8_lossy(listed.unwrap_or_default())
                )
            } else if Some(sketch.hasher()) != self.hasher {
                "the directory records another hasher".to_string()
            } else {
                starts.push(at);
                at += 4 + sketch.id().len();
                continue;
            };
            return Err(corrupt(format!(
                "at record {record} ('{}'): {disagrees}",
                sketch.id()
            )));
        }
        if at != self.ids.len() || starts.len() != self.records {
            return Err(corrupt(format!(
                "in length: it lists {} bytes of ids for {} records, the shards hold {at} for {}",
                self.ids.len(),
                self.records,
                starts.len()
            )));
        }
        // The index must hold every listed id once, in ascending order:
        // each entry the start of a listed id, and greater than the last.
        let mut last = None;
        for entry in 0..self.records {
            let at = self
                .sorted_at(entry)
                .filter(|at| starts.binary_search(at).is_ok());
            let id = at.and_then(|at| self.id_at(at));
            if id.is_none() || id <= last {
                return Err(corrupt(format!(
                    "in its sorted index: entry {entry} is out of order"
                )));
            }
            last = id;
        }
        Ok(())
    }
}

/// The directory's state and on-disk size for [`crate::stat_corpus`].
pub(crate) fn stat(dir: &Path, manifest: &Manifest) -> (DirectoryState, u64) {
    match read(dir) {
        None => (DirectoryState::Absent, 0),
        Some(bytes) => {
            let state = match IdDirectory::verify(&bytes, dir, manifest) {
                Some(_) => DirectoryState::Ok,
                None => DirectoryState::Stale,
            };
            (state, bytes.len() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    /// `contains` finds every listed id and nothing else — at every base
    /// size around the binary search's edges, with ids that are prefixes
    /// of one another and a shard order that is not the sorted order.
    #[test]
    fn contains_finds_exactly_the_listed_ids() {
        let builder = SketchBuilder::new(SketchConfig::with_size(4));
        let dir = std::env::temp_dir().join(format!("cskd-contains-{}", std::process::id()));
        for n in [0usize, 1, 2, 3, 7, 8, 9, 64, 65] {
            let sketches: Vec<CorrelationSketch> = (0..n)
                .map(|i| {
                    // 0, 37, 74, 11, … — and "t1" beside "t11", "t111".
                    let table = format!("t{}", "1".repeat(i % 4) + &((i * 37) % 100).to_string());
                    builder.build(&ColumnPair::new(
                        format!("{table}-{i}"),
                        "k",
                        "v",
                        vec!["a".to_string(), "b".to_string()],
                        vec![1.0, 2.0],
                    ))
                })
                .collect();
            let manifest =
                crate::pack_corpus(&dir, &sketches, &crate::PackOptions::default()).expect("pack");
            let bytes = read(&dir).expect("a directory was written");
            let directory = IdDirectory::verify(&bytes, &dir, &manifest).expect("it verifies");
            assert_eq!(directory.records, n);
            for s in &sketches {
                let id = s.id();
                assert!(directory.contains(id), "n={n}: {id}");
                for near in [&id[..id.len() - 1], &id[1..], &format!("{id}0"), ""] {
                    let listed = sketches.iter().any(|s| s.id() == near);
                    assert_eq!(directory.contains(near), listed, "n={n}: {near}");
                }
            }
            assert!(!directory.contains("zzz"), "n={n}");
            directory
                .cross_check(sketches.iter())
                .expect("and agrees with its base");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
