//! Whole-corpus operations: pack/read with deterministic parallel
//! fan-out, plus the mutable-corpus write paths — append-only delta
//! shards, tombstone deletes, and offline compaction.
//!
//! # The corpus log and its live view
//!
//! A corpus directory is an ordered log: base shards (one contiguous
//! chunk each, pack order) followed by delta shards in generation order,
//! each holding appends and tombstones in the order they were issued.
//! Reading replays the log into the **live view**: base records in base
//! order with tombstoned records dropped, then surviving appends in
//! append order. Every reader (and `sketch-index`'s `from_store`)
//! sees exactly this order, so doc ids, tie-breaks, and query reports
//! are reproducible across loads, thread counts, and compactions.
//!
//! # What a write verifies, and what only a load verifies
//!
//! A write ([`append_corpus`], [`remove_from_corpus`]) costs the delta,
//! not the lake. It learns which of the ids it names are in the base,
//! and the corpus hasher, from the id directory ([`crate::directory`])
//! once that verifies — whole-file checksum, base generation, record
//! count, and the byte length of every base shard against an
//! `O(#shards)` stat — and the rest from the record *heads* (tag, id,
//! hasher) of the pending delta shards, whose record checksums and counts
//! it still verifies in full. Against that view it applies the rules a
//! load applies, in the same order: no duplicate live id, no tombstone
//! for an id that is not live, one hasher. **No base shard is
//! opened**, so a write verifies that every base shard is present and of
//! the recorded size, and nothing more about it: a bit flipped inside a
//! base shard does not fail the write — it fails the next load
//! ([`read_corpus`], `SketchIndex::from_store`, `corpus info`,
//! [`compact_corpus`]), which still verifies every checksum of every
//! file, with the same typed error naming the shard, and the write
//! neither hides nor worsens it. Likewise only a load decodes the
//! *entries* of a pending delta's sketches.
//!
//! A store whose directory is absent (packed before directories
//! existed), stamped for another base, describing shards of other sizes
//! (so also: a missing or resized base shard), truncated, or failing its
//! checksum falls back to the full load — every base shard read,
//! checksummed and decoded — and gets exactly that path's outcome. The
//! only selection between the two is the one the code observes: does a
//! directory that verifies exist. A load cross-checks a verified
//! directory against the ids it decoded (typed `Corrupt` on
//! disagreement).
//!
//! # Crash safety
//!
//! Appends and removes write their delta shard *before* atomically
//! renaming the new manifest into place — a crash in between leaves an
//! orphan delta file the old manifest never references (invisible, and
//! cleaned up by the next compact). Compaction and re-packing follow the
//! invalidate-first discipline: the old manifest is deleted before any
//! shard is rewritten, so a crash mid-compact leaves the directory
//! loudly unreadable (missing manifest) rather than silently mixed. The
//! id directory is written after the base shards it describes and before
//! the manifest that publishes them, so a manifest never sits beside a
//! directory of its own base generation that describes other shards.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use correlation_sketches::{
    encode_tombstone, CorrelationSketch, DeltaHead, DeltaRecord, SketchError, DELTA_TAG_SKETCH,
};
use sketch_hashing::TupleHasher;

use crate::directory::{self, IdDirectory, DIRECTORY_NAME};
use crate::error::StoreError;
use crate::manifest::{DeltaMeta, Manifest, ShardMeta};
use crate::shard::{
    decode_delta_heads, encode_records, encode_shard, read_delta_shard, read_shard, KIND_DELTA,
};

/// How a corpus is packed.
#[derive(Debug, Clone, Copy)]
pub struct PackOptions {
    /// Number of shard files to aim for (the actual count is capped at
    /// the sketch count so no shard is empty; `0` is treated as `1`).
    pub shards: usize,
    /// Worker threads for shard writing. `0` and `1` both mean serial;
    /// the shard contents are identical for every value (contiguous
    /// chunking, like `correlation_sketches::build_sketches_parallel`).
    pub threads: usize,
}

impl Default for PackOptions {
    fn default() -> Self {
        Self {
            shards: 8,
            threads: 1,
        }
    }
}

/// Shard file name for shard index `i` (`shard-0000.cskb`, …).
fn shard_file_name(i: usize) -> String {
    format!("shard-{i:04}.cskb")
}

/// Delta shard file name for generation `gen` (`delta-000001.cskb`, …).
fn delta_file_name(gen: u64) -> String {
    format!("delta-{gen:06}.cskb")
}

/// Is this a base shard file name [`pack_corpus`] could have produced?
/// (`{i:04}` pads to 4 digits but grows beyond for index ≥ 10000.)
fn is_shard_file_name(name: &str) -> bool {
    is_numbered(name, "shard-", 4)
}

/// Is this a delta shard file name [`append_corpus`] /
/// [`remove_from_corpus`] could have produced?
fn is_delta_file_name(name: &str) -> bool {
    is_numbered(name, "delta-", 6)
}

fn is_numbered(name: &str, prefix: &str, digits: usize) -> bool {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix(".cskb"))
        .is_some_and(|d| d.len() >= digits && d.bytes().all(|b| b.is_ascii_digit()))
}

/// Map contiguous chunks of `items` through a fallible `f` on up to
/// `threads` scoped workers, re-concatenating results in input order —
/// the workspace's deterministic fan-out pattern, shared by the pack and
/// read paths. The first error (in input order within its worker's run)
/// wins.
fn try_par_map<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> Result<U, StoreError> + Sync,
) -> Result<Vec<U>, StoreError> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let per_worker = items.len().div_ceil(threads);
    let f = &f;
    let mut runs = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per_worker)
            .map(|run| scope.spawn(move || run.iter().map(f).collect::<Result<Vec<_>, _>>()))
            .collect();
        for h in handles {
            runs.push(h.join().expect("store workers do not panic"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for run in runs {
        out.extend(run?);
    }
    Ok(out)
}

/// Write base shards for `sketches` into `dir` at `generation`, cleaning
/// every stale base/delta file, with the invalidate-first discipline:
/// manifest removed, shards written, stale files deleted, id directory
/// written, manifest renamed into place. Shared by [`pack_corpus`]
/// (generation 0 → version-1 manifest) and [`compact_corpus`] (the
/// compacting generation).
fn write_base(
    dir: &Path,
    sketches: &[CorrelationSketch],
    opts: &PackOptions,
    generation: u64,
) -> Result<Manifest, StoreError> {
    std::fs::create_dir_all(dir).map_err(StoreError::io(dir))?;
    // Invalidate any previous store generation before touching shards.
    let old_manifest = dir.join(crate::manifest::MANIFEST_NAME);
    match std::fs::remove_file(&old_manifest) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::io(old_manifest)(e)),
    }

    let shards = opts.shards.clamp(1, sketches.len().max(1));
    let chunk_len = sketches.len().div_ceil(shards);
    let chunks: Vec<(usize, &[CorrelationSketch])> = if sketches.is_empty() {
        Vec::new()
    } else {
        sketches.chunks(chunk_len).enumerate().collect()
    };

    // Each shard with the byte length written, for the id directory.
    let written: Vec<(ShardMeta, u64)> = try_par_map(&chunks, opts.threads, |&(i, chunk)| {
        let file = shard_file_name(i);
        let path = dir.join(&file);
        let bytes = encode_shard(chunk)?;
        std::fs::write(&path, &bytes).map_err(StoreError::io(path))?;
        let meta = ShardMeta {
            file,
            count: chunk.len() as u64,
        };
        Ok((meta, bytes.len() as u64))
    })?;
    let (metas, shard_lens): (Vec<ShardMeta>, Vec<u64>) = written.into_iter().unzip();

    // Delete files a previous, larger pack (or the pre-compaction delta
    // log) left behind — they are no longer referenced and would
    // otherwise linger as dead weight (or confuse a by-glob consumer) —
    // and the previous base's id directory, which describes none of the
    // shards just written.
    let current: HashSet<&str> = metas.iter().map(|m| m.file.as_str()).collect();
    for entry in std::fs::read_dir(dir).map_err(StoreError::io(dir))? {
        let entry = entry.map_err(StoreError::io(dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (is_shard_file_name(name) && !current.contains(name))
            || is_delta_file_name(name)
            || name == DIRECTORY_NAME;
        if stale {
            std::fs::remove_file(entry.path()).map_err(StoreError::io(entry.path()))?;
        }
    }
    directory::write(dir, generation, &shard_lens, sketches)?;

    let manifest = Manifest {
        generation,
        base_generation: generation,
        ..Manifest::base(sketches.len() as u64, metas)
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Pack a corpus into `dir` as binary shards plus a manifest.
///
/// The input order is preserved: shard `i` holds the `i`-th contiguous
/// chunk, and [`read_corpus`] returns the sketches in exactly this order.
/// Duplicate sketch ids are rejected up front (ids are primary keys in a
/// store), and so is a corpus whose sketches disagree on the hasher: no
/// two of its halves could be joined, so it would sit valid on disk but
/// unindexable.
///
/// Re-packing into a directory that already holds a store is safe: the
/// old manifest is removed *before* any shard is written (so a pack
/// interrupted mid-write leaves the directory unreadable — a missing
/// manifest — rather than an old manifest over a mix of old and new
/// shards), stale base and delta files from the previous store are
/// deleted, and the new manifest is written atomically (temp file +
/// rename) as the final step. The packed store starts over at
/// generation 0.
///
/// # Errors
///
/// [`StoreError::Sketch`] with [`SketchError::DuplicateId`] on duplicate
/// ids, [`SketchError::HasherMismatch`] on mixed hashers, or
/// [`SketchError::Corrupt`] on unencodable sketches; [`StoreError::Io`]
/// on filesystem failure.
pub fn pack_corpus(
    dir: &Path,
    sketches: &[CorrelationSketch],
    opts: &PackOptions,
) -> Result<Manifest, StoreError> {
    let mut seen = HashSet::with_capacity(sketches.len());
    for s in sketches {
        if !seen.insert(s.id()) {
            return Err(SketchError::DuplicateId(s.id().to_string()).into());
        }
        if s.hasher() != sketches[0].hasher() {
            return Err(SketchError::HasherMismatch.into());
        }
    }
    write_base(dir, sketches, opts, 0)
}

/// The replayed live view of a corpus log: what survives, in log order,
/// with the id-keyed bookkeeping needed to apply more deltas. One replay
/// serves both readers: a full load holds `LiveView<CorrelationSketch>`;
/// a write holds `LiveView<TupleHasher>` — a slot reduced to the one
/// field of its sketch a write asks about.
struct LiveView<T> {
    /// Records in log order; tombstoned slots are `None`.
    slots: Vec<Option<T>>,
    /// Live id → slot position.
    by_id: HashMap<String, usize>,
    /// Base records the view holds no slot for (see [`replay_heads`]) —
    /// live, and named by no record the replay goes on to apply — as
    /// their count and what any one of their slots would hold. `None` in
    /// a full load, and wherever there is no such record.
    unnamed: Option<(usize, T)>,
}

impl<T> LiveView<T> {
    /// A view with room for `records` log records — always a count of
    /// records actually read, never a number a file merely states.
    fn with_capacity(records: usize) -> Self {
        Self {
            slots: Vec::with_capacity(records),
            by_id: HashMap::with_capacity(records),
            unnamed: None,
        }
    }

    fn live_count(&self) -> u64 {
        let unnamed = self.unnamed.as_ref().map_or(0, |(count, _)| *count);
        (self.by_id.len() + unnamed) as u64
    }

    /// The first live record in log order. Unnamed records are base
    /// records, and the base opens the log.
    fn first_live(&self) -> Option<&T> {
        match &self.unnamed {
            Some((_, item)) => Some(item),
            None => self.slots.iter().flatten().next(),
        }
    }

    fn append(&mut self, id: String, item: T) -> Result<(), SketchError> {
        match self.by_id.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Err(SketchError::DuplicateId(e.key().clone()))
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.slots.len());
                self.slots.push(Some(item));
                Ok(())
            }
        }
    }

    fn tombstone(&mut self, id: &str) -> Result<(), SketchError> {
        match self.by_id.remove(id) {
            Some(slot) => {
                self.slots[slot] = None;
                Ok(())
            }
            None => Err(SketchError::TombstoneForUnknownId(id.to_string())),
        }
    }

    /// The replay must leave exactly the live count the manifest states.
    fn check_total(&self, manifest: &Manifest) -> Result<(), SketchError> {
        let live_count = self.live_count();
        if live_count != manifest.total {
            return Err(SketchError::Corrupt(format!(
                "replaying the corpus log leaves {live_count} live records, \
                 manifest says {}",
                manifest.total
            )));
        }
        Ok(())
    }
}

impl LiveView<CorrelationSketch> {
    fn apply(&mut self, record: DeltaRecord) -> Result<(), SketchError> {
        match record {
            DeltaRecord::Sketch(s) => self.append(s.id().to_string(), s),
            DeltaRecord::Tombstone(id) => self.tombstone(&id),
        }
    }

    fn into_live(self) -> Vec<CorrelationSketch> {
        self.slots.into_iter().flatten().collect()
    }

    /// This view as a write holds it.
    fn heads(&self) -> LiveView<TupleHasher> {
        let mut heads = LiveView::with_capacity(self.slots.len());
        for (slot, sketch) in self.slots.iter().enumerate() {
            heads
                .slots
                .push(sketch.as_ref().map(CorrelationSketch::hasher));
            if let Some(s) = sketch {
                heads.by_id.insert(s.id().to_string(), slot);
            }
        }
        heads
    }
}

/// What a write needs to know of a log record: its id, and the hasher it
/// was appended under (`None`: the record is a tombstone).
type IdEvent<'a> = (&'a str, Option<TupleHasher>);

/// The [`IdEvent`]s of one pending delta shard, owning their ids.
type ShardEvents = Vec<(String, Option<TupleHasher>)>;

impl LiveView<TupleHasher> {
    fn apply(&mut self, (id, appended_under): IdEvent<'_>) -> Result<(), SketchError> {
        match appended_under {
            Some(hasher) => self.append(id.to_string(), hasher),
            None => self.tombstone(id),
        }
    }
}

/// Name the shard a typed corruption reason was found in.
fn in_shard(file: &str) -> impl Fn(SketchError) -> StoreError + '_ {
    move |source| StoreError::Shard {
        file: file.to_string(),
        source,
    }
}

/// Read a shard-like file through `read`, converting a not-found I/O
/// error into the typed [`StoreError::MissingShard`] and wrapping
/// corruption with the shard's file name.
fn read_listed<T>(
    dir: &Path,
    file: &str,
    read: impl FnOnce(&Path) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    match read(&dir.join(file)) {
        Ok(v) => Ok(v),
        Err(StoreError::Sketch(e)) => Err(in_shard(file)(e)),
        Err(StoreError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::MissingShard {
                file: file.to_string(),
            })
        }
        Err(other) => Err(other),
    }
}

/// A shard must hold exactly the record count its manifest line states.
fn check_count(file: &str, held: usize, listed: u64) -> Result<(), StoreError> {
    if held as u64 != listed {
        return Err(in_shard(file)(SketchError::Corrupt(format!(
            "holds {held} records, manifest says {listed}"
        ))));
    }
    Ok(())
}

/// Load the full corpus log (manifest, base shards, delta shards) and
/// replay it into the live view. The backbone of every read path.
fn load_live(
    dir: &Path,
    threads: usize,
) -> Result<(Manifest, LiveView<CorrelationSketch>), StoreError> {
    let manifest = Manifest::load(dir)?;

    let shard_contents: Vec<Vec<CorrelationSketch>> =
        try_par_map(&manifest.shards, threads, |meta| {
            let sketches = read_listed(dir, &meta.file, read_shard)?;
            check_count(&meta.file, sketches.len(), meta.count)?;
            Ok(sketches)
        })?;
    let delta_contents: Vec<Vec<DeltaRecord>> = try_par_map(&manifest.deltas, threads, |meta| {
        let records = read_listed(dir, &meta.file, read_delta_shard)?;
        check_count(&meta.file, records.len(), meta.records)?;
        Ok(records)
    })?;
    if let Some(bytes) = directory::read(dir) {
        if let Some(directory) = IdDirectory::verify(&bytes, dir, &manifest) {
            directory.cross_check(shard_contents.iter().flatten())?;
        }
    }

    // Replay serially in log order — deterministic for every thread count.
    let records = shard_contents.iter().map(Vec::len).sum::<usize>()
        + delta_contents.iter().map(Vec::len).sum::<usize>();
    let mut live = LiveView::with_capacity(records);
    for sketches in shard_contents {
        for s in sketches {
            live.append(s.id().to_string(), s)?;
        }
    }
    for (meta, records) in manifest.deltas.iter().zip(delta_contents) {
        for record in records {
            live.apply(record).map_err(in_shard(&meta.file))?;
        }
    }
    live.check_total(&manifest)?;
    Ok((manifest, live))
}

/// Load a packed corpus, validating every shard (magic, version,
/// checksums, manifest record counts), replaying delta shards in
/// generation order, rejecting duplicate live ids and tombstones for
/// unknown ids, and holding the id directory — when it verifies — to the
/// ids the base shards decoded to. Returns the manifest the corpus was
/// validated against alongside the live sketches.
///
/// Shards are read with up to `threads` workers; the live order (base
/// survivors in pack order, then surviving appends in append order) is
/// identical for every thread count.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure; [`StoreError::MissingShard`]
/// when the manifest references a shard file that is not on disk;
/// [`StoreError::Shard`] naming the offending file (with a typed
/// [`SketchError`] inside) on per-shard corruption; [`StoreError::Sketch`]
/// on corpus-level corruption (bad manifest, duplicate ids, stale
/// generations, live-count mismatch, an id directory that disagrees with
/// the base shards) — never a silent partial load.
pub fn read_corpus_with_manifest(
    dir: &Path,
    threads: usize,
) -> Result<(Manifest, Vec<CorrelationSketch>), StoreError> {
    let (manifest, live) = load_live(dir, threads)?;
    Ok((manifest, live.into_live()))
}

/// As [`read_corpus_with_manifest`], returning only the live sketches.
///
/// # Errors
///
/// See [`read_corpus_with_manifest`].
pub fn read_corpus(dir: &Path, threads: usize) -> Result<Vec<CorrelationSketch>, StoreError> {
    read_corpus_with_manifest(dir, threads).map(|(_, sketches)| sketches)
}

/// Read only the delta records with generation greater than `after`, in
/// log order, together with the current manifest — the incremental feed
/// for `sketch-index`'s `refresh_from_store`.
///
/// `after` must name a generation this store lineage has actually been
/// through: at least the base generation (older deltas were folded away
/// by a compaction) and at most the store generation (a larger value
/// means the caller's state came from a store that no longer exists —
/// e.g. the directory was re-packed from scratch, which resets
/// generations to 0). Both directions are rejected with the typed
/// staleness error rather than silently returning "no new deltas".
/// (A re-pack followed by enough new mutations to catch back up to
/// `after` is indistinguishable by generation alone — re-packing a live
/// directory is an offline operation; prefer [`compact_corpus`], which
/// keeps generations monotonic, while incremental consumers exist.)
///
/// # Errors
///
/// [`SketchError::StaleGeneration`] (wrapped in [`StoreError::Sketch`])
/// when `after` is outside `[base_generation, generation]`; otherwise
/// the same errors as [`read_corpus_with_manifest`] for the shards
/// actually read.
pub fn read_deltas_since(
    dir: &Path,
    after: u64,
    threads: usize,
) -> Result<(Manifest, Vec<DeltaRecord>), StoreError> {
    let manifest = Manifest::load(dir)?;
    if after < manifest.base_generation || after > manifest.generation {
        return Err(SketchError::StaleGeneration {
            found: after,
            expected: if after < manifest.base_generation {
                manifest.base_generation
            } else {
                manifest.generation
            },
        }
        .into());
    }
    let wanted: Vec<DeltaMeta> = manifest
        .deltas
        .iter()
        .filter(|d| d.generation > after)
        .cloned()
        .collect();
    let contents: Vec<Vec<DeltaRecord>> = try_par_map(&wanted, threads, |meta| {
        let records = read_listed(dir, &meta.file, read_delta_shard)?;
        check_count(&meta.file, records.len(), meta.records)?;
        Ok(records)
    })?;
    Ok((manifest, contents.into_iter().flatten().collect()))
}

/// Append sketches to a live corpus as one new delta shard, advancing the
/// store generation by one. Ids must be new — appending an id that is
/// already live is rejected (retire it first with
/// [`remove_from_corpus`]).
///
/// The append is validated against the id directory and the pending
/// delta heads, and opens no base shard — see the module docs for what
/// that verifies, what it leaves to the next load, and when it falls
/// back to a full load (`threads` readers). The delta shard is written
/// before the manifest is atomically renamed into place; a crash in
/// between leaves an unreferenced file, not a broken store.
///
/// # Errors
///
/// [`SketchError::DuplicateId`] (wrapped) on an id collision with the
/// live corpus or within `sketches`; [`SketchError::HasherMismatch`]
/// when an appended sketch was built with a different hasher
/// configuration than the live corpus (it could never be joined with
/// it, so accepting it would leave the store valid but unqueryable);
/// the typed corruption errors of the manifest and the pending delta
/// shards (and, on the fallback, everything
/// [`read_corpus_with_manifest`] reports); [`StoreError::MissingShard`]
/// for a missing base or delta shard; [`StoreError::Io`].
pub fn append_corpus(
    dir: &Path,
    sketches: &[CorrelationSketch],
    threads: usize,
) -> Result<Manifest, StoreError> {
    let records: Vec<Mutation<'_>> = sketches.iter().map(Mutation::Append).collect();
    mutate_corpus(dir, threads, &records)
}

/// Tombstone live sketch ids as one new delta shard, advancing the store
/// generation by one. Validated like [`append_corpus`].
///
/// # Errors
///
/// [`SketchError::TombstoneForUnknownId`] (wrapped) when an id is not
/// live (unknown, already removed, or repeated within `ids`); otherwise
/// as [`append_corpus`].
pub fn remove_from_corpus(
    dir: &Path,
    ids: &[String],
    threads: usize,
) -> Result<Manifest, StoreError> {
    let records: Vec<Mutation<'_>> = ids.iter().map(|id| Mutation::Remove(id)).collect();
    mutate_corpus(dir, threads, &records)
}

/// One record of a mutation as its caller holds it, so the delta shard is
/// encoded straight from the caller's sketches.
#[derive(Clone, Copy)]
enum Mutation<'a> {
    Append(&'a CorrelationSketch),
    Remove(&'a str),
}

impl<'a> Mutation<'a> {
    fn event(self) -> IdEvent<'a> {
        match self {
            Self::Append(s) => (s.id(), Some(s.hasher())),
            Self::Remove(id) => (id, None),
        }
    }

    /// The tagged delta payload — byte for byte what
    /// [`DeltaRecord::write_bytes`] writes for the owned record.
    fn payload(self) -> Result<Vec<u8>, SketchError> {
        match self {
            Self::Append(s) => {
                let mut out = vec![DELTA_TAG_SKETCH];
                s.write_bytes(&mut out)?;
                Ok(out)
            }
            Self::Remove(id) => encode_tombstone(id),
        }
    }
}

/// The heads of every pending delta shard, in log order, each shard
/// validated as a load validates it short of decoding entries: present,
/// every record checksum, the manifest's record count.
fn pending_heads(dir: &Path, manifest: &Manifest) -> Result<Vec<ShardEvents>, StoreError> {
    let read = |path: &Path| std::fs::read(path).map_err(StoreError::io(path));
    manifest
        .deltas
        .iter()
        .map(|meta| {
            let bytes = read_listed(dir, &meta.file, read)?;
            let heads = decode_delta_heads(&bytes).map_err(in_shard(&meta.file))?;
            check_count(&meta.file, heads.len(), meta.records)?;
            Ok(heads
                .into_iter()
                .map(|head| match head {
                    DeltaHead::Sketch(h) => (h.id.to_string(), Some(h.hasher)),
                    DeltaHead::Tombstone(id) => (id.to_string(), None),
                })
                .collect())
        })
        .collect()
}

/// Replay the log's *ids* — the base from its directory, the pending
/// deltas from their heads — under the rules and in the order
/// [`load_live`] replays the records themselves.
///
/// Only the base ids that some record *names* get a slot: the ids of the
/// pending heads and of `records`, the mutation about to be validated.
/// No rule ever asks about another id — a duplicate check or a tombstone
/// looks up the id its own record carries — so the rest of the base is
/// carried as a count ([`LiveView::unnamed`]), and the replay costs the
/// log's tail and a binary search per named id, not the lake.
fn replay_heads(
    dir: &Path,
    manifest: &Manifest,
    directory: &IdDirectory<'_>,
    records: &[Mutation<'_>],
) -> Result<LiveView<TupleHasher>, StoreError> {
    let pending = pending_heads(dir, manifest)?;
    let named = pending
        .iter()
        .flatten()
        .map(|(id, _)| id.as_str())
        .chain(records.iter().map(|r| r.event().0));
    let mut live =
        LiveView::with_capacity(pending.iter().map(Vec::len).sum::<usize>() + records.len());
    // `verify` admits base records only beside a hasher.
    if let Some(hasher) = directory.hasher {
        for id in named {
            if !live.by_id.contains_key(id) && directory.contains(id) {
                live.append(id.to_string(), hasher)?;
            }
        }
        let unnamed = directory.records - live.slots.len();
        live.unnamed = (unnamed > 0).then_some((unnamed, hasher));
    }
    for (meta, heads) in manifest.deltas.iter().zip(&pending) {
        for (id, appended_under) in heads {
            live.apply((id, *appended_under))
                .map_err(in_shard(&meta.file))?;
        }
    }
    live.check_total(manifest)?;
    Ok(live)
}

/// Shared append/remove implementation: validate the records against the
/// current live view, write the delta shard, advance the manifest.
fn mutate_corpus(
    dir: &Path,
    threads: usize,
    records: &[Mutation<'_>],
) -> Result<Manifest, StoreError> {
    let mut manifest = Manifest::load(dir)?;
    // The live ids and their hashers: from the id directory and the
    // pending delta heads when a directory verifies, else from the full
    // load that every write used to pay for.
    let directory_bytes = directory::read(dir);
    let directory = directory_bytes
        .as_deref()
        .and_then(|bytes| IdDirectory::verify(bytes, dir, &manifest));
    let mut live = match &directory {
        Some(directory) => replay_heads(dir, &manifest, directory, records)?,
        None => {
            let loaded;
            (manifest, loaded) = load_live(dir, threads)?;
            loaded.heads()
        }
    };
    if records.is_empty() {
        return Ok(manifest);
    }
    // Appends must be joinable with the live corpus: enforce hasher
    // uniformity here, mirroring `SketchIndex::insert`, so a mutation
    // can never leave the store valid on disk but unindexable.
    let mut hasher = live.first_live().copied();
    for record in records {
        if let Mutation::Append(s) = record {
            match hasher {
                Some(h) if h != s.hasher() => return Err(SketchError::HasherMismatch.into()),
                None => hasher = Some(s.hasher()),
                _ => {}
            }
        }
    }
    for record in records {
        live.apply(record.event())?;
    }

    let gen = manifest.generation + 1;
    let file = delta_file_name(gen);
    let path = dir.join(&file);
    let payloads = records
        .iter()
        .map(|r| r.payload())
        .collect::<Result<Vec<_>, _>>()?;
    let bytes = encode_records(KIND_DELTA, &payloads)?;
    // `create_new`: two writers racing on the same store both compute
    // generation G+1; the loser must collide loudly here instead of
    // truncate-overwriting the winner's acknowledged delta (the final
    // manifest rename would then pick one and silently drop the other).
    // The same error fires on an orphan file left by an append that
    // crashed before its manifest rename — `corpus compact` (which
    // deletes every delta file) clears either situation.
    let mut delta_file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(StoreError::io(&path))?;
    manifest.deltas.push(DeltaMeta {
        file,
        records: records.len() as u64,
        generation: gen,
    });
    manifest.generation = gen;
    manifest.total = live.live_count();
    let published = std::io::Write::write_all(&mut delta_file, &bytes)
        .map_err(StoreError::io(&path))
        .and_then(|()| manifest.save(dir));
    if published.is_err() {
        // From here on the file is this call's own, so a failure takes it
        // back: left behind, it would fail every later write of this
        // generation with `AlreadyExists` until a compact.
        let _ = std::fs::remove_file(&path);
    }
    published.map(|()| manifest)
}

/// Fold every delta shard (appends and tombstones) back into freshly
/// packed base shards, reclaiming tombstoned records and deleting the
/// delta log. The live view — and therefore every query report of an
/// index built over the store — is unchanged; only the layout is.
///
/// The compacted store carries `base_generation = generation = G + 1`
/// where `G` was the pre-compact generation, so an incremental index
/// still sitting at an older generation gets a typed
/// [`SketchError::StaleGeneration`] from `refresh_from_store` instead of
/// silently replaying against the wrong base.
///
/// # Errors
///
/// The errors of [`read_corpus_with_manifest`] (the corpus is fully
/// validated first) and [`StoreError::Io`].
pub fn compact_corpus(dir: &Path, opts: &PackOptions) -> Result<Manifest, StoreError> {
    let (manifest, live) = load_live(dir, opts.threads)?;
    write_base(dir, &live.into_live(), opts, manifest.generation + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("cskb-corpus-test-{tag}-{}", std::process::id()));
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
        let b = SketchBuilder::new(SketchConfig::with_size(32));
        (0..n)
            .map(|t| {
                let rows = 50 + (t * 13) % 200;
                b.build(&ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (0..rows).map(|i| format!("key-{}-{i}", t % 5)).collect(),
                    (0..rows).map(|i| (i as f64 * 0.3).sin()).collect(),
                ))
            })
            .collect()
    }

    /// Fresh sketches with ids disjoint from [`corpus`].
    fn extra(n: usize, tag: &str) -> Vec<CorrelationSketch> {
        let b = SketchBuilder::new(SketchConfig::with_size(32));
        (0..n)
            .map(|t| {
                b.build(&ColumnPair::new(
                    format!("{tag}{t}"),
                    "k",
                    "v",
                    (0..80).map(|i| format!("key-{t}-{i}")).collect(),
                    (0..80).map(|i| (i as f64 * 0.7).cos()).collect(),
                ))
            })
            .collect()
    }

    /// A sketch no sketch of [`corpus`] or [`extra`] can be joined with.
    fn alien() -> CorrelationSketch {
        SketchBuilder::new(
            SketchConfig::with_size(32).hasher(sketch_hashing::TupleHasher::new_64(99)),
        )
        .build(&ColumnPair::new(
            "alien",
            "k",
            "v",
            (0..50).map(|i| format!("key-{i}")).collect(),
            (0..50).map(|i| i as f64).collect(),
        ))
    }

    #[test]
    fn pack_read_roundtrip_preserves_order() {
        let dir = TempDir::new("roundtrip");
        let sketches = corpus(23);
        let opts = PackOptions {
            shards: 4,
            threads: 2,
        };
        let manifest = pack_corpus(&dir.0, &sketches, &opts).unwrap();
        assert_eq!(manifest.total, 23);
        assert_eq!(manifest.shards.len(), 4);
        assert_eq!(manifest.generation, 0);
        let back = read_corpus(&dir.0, 2).unwrap();
        assert_eq!(back, sketches);
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_the_corpus() {
        let sketches = corpus(17);
        let reference = {
            let dir = TempDir::new("ref");
            pack_corpus(&dir.0, &sketches, &PackOptions::default()).unwrap();
            read_corpus(&dir.0, 1).unwrap()
        };
        for shards in [1usize, 3, 8, 17, 100] {
            for threads in [0usize, 1, 2, 7, 16] {
                let dir = TempDir::new(&format!("s{shards}t{threads}"));
                let opts = PackOptions { shards, threads };
                let m = pack_corpus(&dir.0, &sketches, &opts).unwrap();
                assert!(m.shards.len() <= shards.max(1));
                assert_eq!(
                    read_corpus(&dir.0, threads).unwrap(),
                    reference,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let dir = TempDir::new("empty");
        let m = pack_corpus(&dir.0, &[], &PackOptions::default()).unwrap();
        assert_eq!(m.total, 0);
        assert!(m.shards.is_empty());
        assert!(read_corpus(&dir.0, 4).unwrap().is_empty());
    }

    #[test]
    fn repacking_a_smaller_corpus_cleans_stale_shards() {
        let dir = TempDir::new("repack");
        let big = corpus(16);
        pack_corpus(
            &dir.0,
            &big,
            &PackOptions {
                shards: 8,
                threads: 2,
            },
        )
        .unwrap();
        assert!(dir.0.join("shard-0007.cskb").exists());

        let small: Vec<CorrelationSketch> = corpus(4);
        let m = pack_corpus(
            &dir.0,
            &small,
            &PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(m.shards.len(), 2);
        assert!(
            !dir.0.join("shard-0007.cskb").exists(),
            "stale shard from the previous pack must be removed"
        );
        assert_eq!(read_corpus(&dir.0, 2).unwrap(), small);
    }

    #[test]
    fn duplicate_ids_rejected_at_pack_time() {
        let dir = TempDir::new("dup");
        let mut sketches = corpus(3);
        sketches.push(sketches[0].clone());
        let err = pack_corpus(&dir.0, &sketches, &PackOptions::default()).unwrap_err();
        assert!(matches!(
            err.as_sketch_error(),
            Some(SketchError::DuplicateId(_))
        ));
    }

    #[test]
    fn mixed_hashers_rejected_at_pack_time() {
        let dir = TempDir::new("mixed");
        let mut sketches = corpus(2);
        sketches.push(alien());
        let err = pack_corpus(&dir.0, &sketches, &PackOptions::default()).unwrap_err();
        assert!(
            matches!(err.as_sketch_error(), Some(SketchError::HasherMismatch)),
            "{err}"
        );
        // Rejected up front: nothing was written.
        assert!(matches!(
            read_corpus(&dir.0, 1),
            Err(StoreError::MissingManifest { .. })
        ));
    }

    #[test]
    fn missing_shard_file_is_typed() {
        let dir = TempDir::new("missing");
        pack_corpus(
            &dir.0,
            &corpus(6),
            &PackOptions {
                shards: 3,
                threads: 1,
            },
        )
        .unwrap();
        std::fs::remove_file(dir.0.join("shard-0001.cskb")).unwrap();
        let err = read_corpus(&dir.0, 1).unwrap_err();
        assert!(
            matches!(&err, StoreError::MissingShard { file } if file == "shard-0001.cskb"),
            "{err}"
        );
    }

    #[test]
    fn shard_count_mismatch_with_manifest_is_corrupt() {
        let dir = TempDir::new("count-mismatch");
        let sketches = corpus(6);
        pack_corpus(
            &dir.0,
            &sketches,
            &PackOptions {
                shards: 2,
                threads: 1,
            },
        )
        .unwrap();
        // Overwrite shard 1 with fewer records than the manifest claims.
        crate::write_shard(&dir.0.join("shard-0001.cskb"), &sketches[3..5]).unwrap();
        let err = read_corpus(&dir.0, 1).unwrap_err();
        assert!(matches!(
            err.as_sketch_error(),
            Some(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn append_remove_compact_roundtrip() {
        let dir = TempDir::new("mutate");
        let base = corpus(10);
        pack_corpus(
            &dir.0,
            &base,
            &PackOptions {
                shards: 3,
                threads: 2,
            },
        )
        .unwrap();

        // Append five new sketches.
        let added = extra(5, "x");
        let m = append_corpus(&dir.0, &added, 2).unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(m.total, 15);
        assert_eq!(m.deltas.len(), 1);
        let mut expect: Vec<CorrelationSketch> = base.clone();
        expect.extend(added.clone());
        assert_eq!(read_corpus(&dir.0, 2).unwrap(), expect);

        // Remove two: one from the base, one just appended.
        let gone = vec![base[3].id().to_string(), added[1].id().to_string()];
        let m = remove_from_corpus(&dir.0, &gone, 1).unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(m.total, 13);
        expect.retain(|s| !gone.contains(&s.id().to_string()));
        assert_eq!(read_corpus(&dir.0, 3).unwrap(), expect);

        // Re-appending a removed id is allowed and lands at the end.
        let m = append_corpus(&dir.0, &base[3..4], 1).unwrap();
        assert_eq!(m.generation, 3);
        assert_eq!(m.total, 14);
        expect.push(base[3].clone());
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), expect);

        // Compaction preserves the live view exactly and reclaims the
        // delta log.
        let m = compact_corpus(
            &dir.0,
            &PackOptions {
                shards: 4,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(m.generation, 4);
        assert_eq!(m.base_generation, 4);
        assert!(m.deltas.is_empty());
        assert_eq!(m.total, 14);
        assert!(!dir.0.join("delta-000001.cskb").exists());
        assert!(!dir.0.join("delta-000002.cskb").exists());
        assert!(!dir.0.join("delta-000003.cskb").exists());
        for threads in [0usize, 1, 2, 7, 16] {
            assert_eq!(read_corpus(&dir.0, threads).unwrap(), expect, "{threads}");
        }
    }

    #[test]
    fn append_duplicate_live_id_rejected() {
        let dir = TempDir::new("append-dup");
        let base = corpus(4);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        let err = append_corpus(&dir.0, &base[1..2], 1).unwrap_err();
        assert!(matches!(
            err.as_sketch_error(),
            Some(SketchError::DuplicateId(_))
        ));
        // The failed append must not have advanced the store.
        assert_eq!(Manifest::load(&dir.0).unwrap().generation, 0);
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), base);
    }

    #[test]
    fn remove_unknown_id_rejected() {
        let dir = TempDir::new("rm-unknown");
        let base = corpus(4);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        for ids in [
            vec!["nope/k/v".to_string()],
            // Removing the same live id twice in one call: the second
            // tombstone refers to an id that is no longer live.
            vec![base[0].id().to_string(), base[0].id().to_string()],
        ] {
            let err = remove_from_corpus(&dir.0, &ids, 1).unwrap_err();
            assert!(
                matches!(
                    err.as_sketch_error(),
                    Some(SketchError::TombstoneForUnknownId(_))
                ),
                "{err}"
            );
        }
        assert_eq!(Manifest::load(&dir.0).unwrap().generation, 0);
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), base);
    }

    #[test]
    fn colliding_delta_file_makes_the_race_loud() {
        let dir = TempDir::new("delta-collision");
        pack_corpus(&dir.0, &corpus(3), &PackOptions::default()).unwrap();
        // Simulate a concurrent writer (or a crashed append's orphan):
        // the file for the next generation already exists.
        std::fs::write(dir.0.join("delta-000001.cskb"), b"in flight").unwrap();
        let err = append_corpus(&dir.0, &extra(1, "w"), 1).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { source, .. }
                if source.kind() == std::io::ErrorKind::AlreadyExists),
            "{err}"
        );
        // The manifest was never advanced; compact clears the orphan and
        // the append then succeeds.
        assert_eq!(Manifest::load(&dir.0).unwrap().generation, 0);
        compact_corpus(&dir.0, &PackOptions::default()).unwrap();
        assert!(!dir.0.join("delta-000001.cskb").exists());
        append_corpus(&dir.0, &extra(1, "w"), 1).unwrap();
        assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), 4);
    }

    #[test]
    fn failed_publish_takes_its_delta_file_back() {
        let dir = TempDir::new("unpublished");
        pack_corpus(&dir.0, &corpus(3), &PackOptions::default()).unwrap();
        // The manifest's temp file cannot be written: the save fails
        // after the delta shard is already on disk.
        let obstacle = dir.0.join("manifest.cskm.tmp");
        std::fs::create_dir(&obstacle).unwrap();
        let err = append_corpus(&dir.0, &extra(1, "w"), 1).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(
            !dir.0.join("delta-000001.cskb").exists(),
            "the failed append must not leave its delta shard behind"
        );
        assert_eq!(Manifest::load(&dir.0).unwrap().generation, 0);
        // With the obstacle gone the retry goes through — no compact
        // needed to clear an orphan.
        std::fs::remove_dir(&obstacle).unwrap();
        let m = append_corpus(&dir.0, &extra(1, "w"), 1).unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), 4);
    }

    #[test]
    fn empty_mutations_are_noops() {
        let dir = TempDir::new("noop");
        pack_corpus(&dir.0, &corpus(3), &PackOptions::default()).unwrap();
        assert_eq!(append_corpus(&dir.0, &[], 1).unwrap().generation, 0);
        assert_eq!(remove_from_corpus(&dir.0, &[], 1).unwrap().generation, 0);
    }

    #[test]
    fn read_deltas_since_feeds_incremental_consumers() {
        let dir = TempDir::new("since");
        let base = corpus(5);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        let added = extra(2, "y");
        append_corpus(&dir.0, &added, 1).unwrap();
        remove_from_corpus(&dir.0, &[base[0].id().to_string()], 1).unwrap();

        let (m, records) = read_deltas_since(&dir.0, 0, 2).unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(records.len(), 3);
        let (_, records) = read_deltas_since(&dir.0, 1, 1).unwrap();
        assert_eq!(
            records,
            vec![DeltaRecord::Tombstone(base[0].id().to_string())]
        );
        let (_, records) = read_deltas_since(&dir.0, 2, 1).unwrap();
        assert!(records.is_empty());

        // After a compact, pre-compact generations are stale.
        compact_corpus(&dir.0, &PackOptions::default()).unwrap();
        let err = read_deltas_since(&dir.0, 2, 1).unwrap_err();
        assert!(
            matches!(
                err.as_sketch_error(),
                Some(SketchError::StaleGeneration {
                    found: 2,
                    expected: 3
                })
            ),
            "{err}"
        );
        let (m, records) = read_deltas_since(&dir.0, 3, 1).unwrap();
        assert_eq!(m.generation, 3);
        assert!(records.is_empty());
    }

    #[test]
    fn read_deltas_since_rejects_generations_the_store_never_reached() {
        let dir = TempDir::new("since-future");
        let base = corpus(4);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        append_corpus(&dir.0, &extra(1, "z"), 1).unwrap();
        // A caller claiming generation 5 cannot have come from this store
        // lineage (e.g. the directory was re-packed from scratch after
        // the caller last refreshed): typed staleness, not "no deltas".
        let err = read_deltas_since(&dir.0, 5, 1).unwrap_err();
        assert!(
            matches!(
                err.as_sketch_error(),
                Some(SketchError::StaleGeneration { found: 5, .. })
            ),
            "{err}"
        );
        // The boundary itself (the store's own generation) is fine.
        assert!(read_deltas_since(&dir.0, 1, 1).unwrap().1.is_empty());
    }

    #[test]
    fn hasher_incompatible_append_rejected() {
        let dir = TempDir::new("append-hasher");
        let base = corpus(3);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        let err = append_corpus(&dir.0, &[alien()], 1).unwrap_err();
        assert!(
            matches!(err.as_sketch_error(), Some(SketchError::HasherMismatch)),
            "{err}"
        );
        // The rejected append must not have advanced the store.
        assert_eq!(Manifest::load(&dir.0).unwrap().generation, 0);
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), base);
    }

    #[test]
    fn compacting_an_unmutated_store_just_advances_the_generation() {
        let dir = TempDir::new("compact-fresh");
        let base = corpus(6);
        pack_corpus(&dir.0, &base, &PackOptions::default()).unwrap();
        let m = compact_corpus(&dir.0, &PackOptions::default()).unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(m.base_generation, 1);
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), base);
    }
}
