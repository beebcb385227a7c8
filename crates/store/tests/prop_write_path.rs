//! The write-path battery: `append_corpus` / `remove_from_corpus`
//! validate against the id directory and the pending delta heads, and
//! must be *exactly* the write they replaced.
//!
//! * **Differential.** [`reference_mutate`] is the full-validation write
//!   every append and remove used to be — load and decode the whole
//!   corpus, validate, write — kept here as the oracle. Two stores are
//!   driven in lockstep through random interleavings, one by the
//!   library, one by the reference; after every step they must agree on
//!   the outcome (`Ok` manifest or `Err` variant and payload), on every
//!   file byte for byte, and on what `read_corpus` returns.
//! * **Directory corruption.** Every truncation and every single-bit
//!   flip of the directory ends in the fallback with the reference's
//!   outcome — never a wrong accept.
//! * **The written-down contract.** A same-size byte flip inside a base
//!   shard does not fail the append (no base shard is opened); it fails
//!   the next load, naming the shard. A deleted or resized base shard
//!   still fails the append, typed.
//! * **Crash states.** The directory as it stands after each step of
//!   `append`/`rm` and of `pack`/`compact`, assembled by hand, reopens to
//!   exactly the old generation, exactly the new one, or — inside the
//!   invalidate-first window only — the loud `MissingManifest`.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use correlation_sketches::{
    CorrelationSketch, DeltaRecord, SketchBuilder, SketchConfig, SketchError,
};
use proptest::prelude::*;
use sketch_hashing::TupleHasher;
use sketch_store::shard::encode_delta_shard;
use sketch_store::{
    append_corpus, compact_corpus, pack_corpus, read_corpus, read_corpus_with_manifest,
    remove_from_corpus, stat_corpus, DeltaMeta, DirectoryState, Manifest, PackOptions, StoreError,
    DIRECTORY_NAME, MANIFEST_NAME,
};
use sketch_table::ColumnPair;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cskb-write-path-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sketch `n` under `hasher`; ids are distinct per `n`.
fn sketch_under(hasher: TupleHasher, n: usize) -> CorrelationSketch {
    let rows = 12 + (n * 5) % 17;
    SketchBuilder::new(SketchConfig::with_size(8).hasher(hasher)).build(&ColumnPair::new(
        format!("t{n}"),
        "k",
        "v",
        (0..rows).map(|i| format!("key-{}", i + n % 3)).collect(),
        (0..rows).map(|i| ((i * (n + 1)) as f64).sin()).collect(),
    ))
}

fn sketch(n: usize) -> CorrelationSketch {
    sketch_under(TupleHasher::default(), n)
}

fn sketches(range: std::ops::Range<usize>) -> Vec<CorrelationSketch> {
    range.map(sketch).collect()
}

/// A sketch no [`sketch`] can be joined with.
fn alien(n: usize) -> CorrelationSketch {
    sketch_under(TupleHasher::new_64(99), n)
}

/// The write path before the id directory, kept as the oracle: load and
/// fully validate the whole corpus (every checksum, every payload), apply
/// the hasher rule and then the id rules record by record, write the
/// delta shard, advance the manifest.
fn reference_mutate(dir: &Path, records: Vec<DeltaRecord>) -> Result<Manifest, StoreError> {
    let (mut manifest, live) = read_corpus_with_manifest(dir, 1)?;
    if records.is_empty() {
        return Ok(manifest);
    }
    let mut hasher = live.first().map(CorrelationSketch::hasher);
    for record in &records {
        if let DeltaRecord::Sketch(s) = record {
            match hasher {
                Some(h) if h != s.hasher() => return Err(SketchError::HasherMismatch.into()),
                None => hasher = Some(s.hasher()),
                _ => {}
            }
        }
    }
    let mut ids: HashSet<String> = live.iter().map(|s| s.id().to_string()).collect();
    for record in &records {
        match record {
            DeltaRecord::Sketch(s) if !ids.insert(s.id().to_string()) => {
                return Err(SketchError::DuplicateId(s.id().to_string()).into());
            }
            DeltaRecord::Tombstone(id) if !ids.remove(id) => {
                return Err(SketchError::TombstoneForUnknownId(id.clone()).into());
            }
            _ => {}
        }
    }
    let gen = manifest.generation + 1;
    let file = format!("delta-{gen:06}.cskb");
    let path = dir.join(&file);
    let io = |e: std::io::Error| StoreError::Io {
        path: path.clone(),
        source: e,
    };
    let bytes = encode_delta_shard(&records)?;
    let mut delta_file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(io)?;
    std::io::Write::write_all(&mut delta_file, &bytes).map_err(io)?;
    manifest.deltas.push(DeltaMeta {
        file,
        records: records.len() as u64,
        generation: gen,
    });
    manifest.generation = gen;
    manifest.total = ids.len() as u64;
    manifest.save(dir)?;
    Ok(manifest)
}

fn reference_append(dir: &Path, sketches: &[CorrelationSketch]) -> Result<Manifest, StoreError> {
    reference_mutate(
        dir,
        sketches.iter().cloned().map(DeltaRecord::Sketch).collect(),
    )
}

fn reference_remove(dir: &Path, ids: &[String]) -> Result<Manifest, StoreError> {
    reference_mutate(
        dir,
        ids.iter().cloned().map(DeltaRecord::Tombstone).collect(),
    )
}

/// An outcome as the two stores must agree on it: the manifest, or the
/// error's variant and payload. (The typed errors this battery meets —
/// `Sketch`, `Shard`, `MissingShard` — carry no directory path.)
fn outcome(result: Result<Manifest, StoreError>) -> Result<Manifest, String> {
    result.map_err(|e| format!("{e:?}"))
}

/// Every file of a store directory, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// Make `dir` hold exactly `files`.
fn materialize(dir: &Path, files: &BTreeMap<String, Vec<u8>>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

fn directory_state(dir: &Path) -> DirectoryState {
    stat_corpus(dir).unwrap().directory
}

/// One step of a generated interleaving. `Index` picks among the live
/// (or the removed) sketches at the time the step runs.
#[derive(Debug, Clone)]
enum Op {
    /// Append this many fresh sketches.
    Append(usize),
    /// Append a fresh sketch and a live one: the batch collides.
    AppendLive(prop::sample::Index),
    /// Append one fresh sketch twice in one batch.
    AppendTwice,
    /// Append a sketch built under another hasher.
    AppendAlien,
    /// Append a sketch that was removed earlier.
    ReAppend(prop::sample::Index),
    /// Remove up to this many live sketches.
    Remove(prop::sample::Index, usize),
    /// Remove every live sketch.
    RemoveAll,
    /// Tombstone an id that was never there.
    RemoveUnknown,
    /// Tombstone one live id twice in one call.
    RemoveRepeated(prop::sample::Index),
    /// Tombstone an id that was removed earlier.
    RemoveRemoved(prop::sample::Index),
    /// An append and a remove of nothing.
    Empty,
    /// Fold the log into this many base shards.
    Compact(usize),
    /// Damage the id directory (it stays damaged until a compact).
    Damage(Damage),
}

#[derive(Debug, Clone)]
enum Damage {
    Delete,
    /// The directory of an older base generation, if there was one.
    Older,
    Truncate(prop::sample::Index),
    Flip(prop::sample::Index, u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let index = any::<prop::sample::Index>;
    proptest::collection::vec(
        prop_oneof![
            (1usize..4).prop_map(Op::Append),
            (1usize..4).prop_map(Op::Append),
            index().prop_map(Op::AppendLive),
            Just(Op::AppendTwice),
            Just(Op::AppendAlien),
            index().prop_map(Op::ReAppend),
            (index(), 1usize..4).prop_map(|(i, n)| Op::Remove(i, n)),
            (index(), 1usize..4).prop_map(|(i, n)| Op::Remove(i, n)),
            Just(Op::RemoveAll),
            Just(Op::RemoveUnknown),
            index().prop_map(Op::RemoveRepeated),
            index().prop_map(Op::RemoveRemoved),
            Just(Op::Empty),
            (1usize..4).prop_map(Op::Compact),
            Just(Op::Damage(Damage::Delete)),
            Just(Op::Damage(Damage::Older)),
            index().prop_map(|i| Op::Damage(Damage::Truncate(i))),
            (index(), 0u8..8).prop_map(|(i, bit)| Op::Damage(Damage::Flip(i, bit))),
        ],
        1..14,
    )
}

/// What a step comes down to, once its sketches and ids are picked.
enum Write {
    Append(Vec<CorrelationSketch>),
    Remove(Vec<String>),
    Compact(PackOptions),
}

impl Write {
    /// The write by the library on `ours`, by the reference on `theirs`
    /// (a compaction is the library's on both: it is not under test).
    fn on_both(
        &self,
        ours: &Path,
        theirs: &Path,
        threads: usize,
    ) -> (Result<Manifest, StoreError>, Result<Manifest, StoreError>) {
        match self {
            Self::Append(batch) => (
                append_corpus(ours, batch, threads),
                reference_append(theirs, batch),
            ),
            Self::Remove(ids) => (
                remove_from_corpus(ours, ids, threads),
                reference_remove(theirs, ids),
            ),
            Self::Compact(pack) => (compact_corpus(ours, pack), compact_corpus(theirs, pack)),
        }
    }
}

/// Drive two stores in lockstep through `ops` — one by the library, one
/// by the reference — comparing outcome, files and live view after
/// every step.
fn drive(base_n: usize, shards: usize, threads: usize, ops: &[Op]) -> TestCaseResult {
    let (ours, theirs) = (TempDir::new(), TempDir::new());
    let (ours, theirs) = (ours.0.as_path(), theirs.0.as_path());
    // Sketch numbers not handed out yet.
    let mut unused = base_n..;
    let mut fresh = |count: usize| -> Vec<CorrelationSketch> {
        unused.by_ref().take(count).map(sketch).collect()
    };
    let pack = PackOptions { shards, threads };
    for dir in [ours, theirs] {
        pack_corpus(dir, &sketches(0..base_n), &pack).unwrap();
    }
    prop_assert_eq!(directory_state(ours), DirectoryState::Ok);

    let mut live = read_corpus(ours, 1).unwrap();
    let mut removed: Vec<CorrelationSketch> = Vec::new();
    let mut older_directory: Option<Vec<u8>> = None;
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("step {step} {op:?}");
        let pick = |from: &[CorrelationSketch], i: &prop::sample::Index| {
            (!from.is_empty()).then(|| from[i.index(from.len())].clone())
        };
        // The error the step must come to, where the step alone
        // decides (`None`: the state does, and the stores agree).
        let mut expect: Option<fn(&SketchError) -> bool> = None;
        // A fresh sketch beside a duplicate: the duplicate is caught
        // unless the fresh one is already refused, a store of aliens.
        let collides: fn(&SketchError) -> bool =
            |e| matches!(e, SketchError::DuplicateId(_) | SketchError::HasherMismatch);
        let unknown: fn(&SketchError) -> bool =
            |e| matches!(e, SketchError::TombstoneForUnknownId(_));
        let ids_of = |sketches: &[CorrelationSketch]| -> Vec<String> {
            sketches.iter().map(|s| s.id().to_string()).collect()
        };
        let write = match op {
            Op::Append(count) => Write::Append(fresh(*count)),
            Op::AppendLive(i) => {
                let mut batch = fresh(1);
                if let Some(s) = pick(&live, i) {
                    batch.push(s);
                    expect = Some(collides);
                }
                Write::Append(batch)
            }
            Op::AppendTwice => {
                let mut batch = fresh(1);
                batch.push(batch[0].clone());
                expect = Some(collides);
                Write::Append(batch)
            }
            Op::AppendAlien => {
                let batch = vec![alien(1000 + step)];
                if live.iter().any(|s| s.hasher() != batch[0].hasher()) {
                    expect = Some(|e| matches!(e, SketchError::HasherMismatch));
                }
                Write::Append(batch)
            }
            Op::ReAppend(i) => Write::Append(pick(&removed, i).into_iter().collect()),
            Op::Remove(i, count) => {
                let from = if live.is_empty() {
                    0
                } else {
                    i.index(live.len())
                };
                Write::Remove(ids_of(&live[from..live.len().min(from + count)]))
            }
            Op::RemoveAll => Write::Remove(ids_of(&live)),
            Op::RemoveUnknown => {
                expect = Some(unknown);
                Write::Remove(vec!["ghost/k/v".to_string()])
            }
            Op::RemoveRepeated(i) => {
                let twice: Vec<_> = pick(&live, i).into_iter().cycle().take(2).collect();
                if !twice.is_empty() {
                    expect = Some(unknown);
                }
                Write::Remove(ids_of(&twice))
            }
            Op::RemoveRemoved(i) => {
                let gone: Vec<_> = pick(&removed, i)
                    .filter(|gone| live.iter().all(|s| s.id() != gone.id()))
                    .into_iter()
                    .collect();
                if !gone.is_empty() {
                    expect = Some(unknown);
                }
                Write::Remove(ids_of(&gone))
            }
            Op::Empty => {
                let appended = Write::Append(Vec::new()).on_both(ours, theirs, threads);
                prop_assert_eq!(outcome(appended.0), outcome(appended.1), "{}", &ctx);
                Write::Remove(Vec::new())
            }
            Op::Compact(shards) => {
                older_directory = std::fs::read(ours.join(DIRECTORY_NAME))
                    .ok()
                    .or(older_directory);
                Write::Compact(PackOptions {
                    shards: *shards,
                    threads,
                })
            }
            Op::Damage(damage) => {
                // The same damage on both sides, so the directories
                // stay comparable byte for byte; the reference never
                // reads the file.
                let path = ours.join(DIRECTORY_NAME);
                let good = std::fs::read(&path).ok().filter(|good| !good.is_empty());
                let bad = match (damage, good) {
                    (Damage::Delete, _) => None,
                    (Damage::Older, good) => older_directory.clone().or(good),
                    (_, None) => None,
                    (Damage::Truncate(i), Some(good)) => Some(good[..i.index(good.len())].to_vec()),
                    (Damage::Flip(i, bit), Some(mut good)) => {
                        let at = i.index(good.len());
                        good[at] ^= 1 << bit;
                        Some(good)
                    }
                };
                for dir in [ours, theirs] {
                    match &bad {
                        Some(bytes) => std::fs::write(dir.join(DIRECTORY_NAME), bytes).unwrap(),
                        None => {
                            let _ = std::fs::remove_file(dir.join(DIRECTORY_NAME));
                        }
                    }
                }
                if !matches!(damage, Damage::Older) || older_directory.is_some() {
                    prop_assert_ne!(directory_state(ours), DirectoryState::Ok, "{}", &ctx);
                }
                continue;
            }
        };
        let (got, want) = write.on_both(ours, theirs, threads);
        if matches!(write, Write::Compact(_)) {
            prop_assert_eq!(directory_state(ours), DirectoryState::Ok, "{}", &ctx);
        }
        if let (Some(expect), Err(e)) = (expect, &got) {
            prop_assert!(e.as_sketch_error().is_some_and(expect), "{}: {}", &ctx, e);
        }
        prop_assert!(expect.is_none() || got.is_err(), "{}: accepted", &ctx);
        prop_assert_eq!(outcome(got), outcome(want), "{}: outcome", &ctx);
        prop_assert!(snapshot(ours) == snapshot(theirs), "{}: files differ", &ctx);
        let now = read_corpus(ours, threads).unwrap();
        prop_assert_eq!(
            &now,
            &read_corpus(theirs, 1).unwrap(),
            "{}: live view",
            &ctx
        );
        removed.extend(
            live.into_iter()
                .filter(|s| now.iter().all(|n| n.id() != s.id())),
        );
        live = now;
    }
    Ok(())
}

proptest! {
    /// The headline property: whatever the interleaving, and whatever
    /// happens to the directory on the way, the library's write is the
    /// reference's write — same outcome, same bytes on disk.
    #[test]
    fn any_interleaving_writes_what_full_validation_writes(
        base_n in 0usize..6,
        shards in 1usize..4,
        threads in 1usize..3,
        ops in arb_ops(),
    ) {
        drive(base_n, shards, threads, &ops)?;
    }
}

/// The corner the generator rarely reaches: a store emptied by removes
/// has no live hasher — whatever its base shards were built under — so
/// the next append decides it, on both write paths alike.
#[test]
fn an_emptied_store_takes_the_hasher_of_the_next_append() {
    let ops = [
        Op::RemoveAll,
        Op::AppendAlien,
        Op::Append(1),
        Op::AppendAlien,
        Op::Compact(2),
        Op::Append(1),
        Op::RemoveAll,
        Op::Append(2),
        Op::AppendAlien,
    ];
    for base_n in [0, 3] {
        if let Err(TestCaseError::Fail(why)) = drive(base_n, 2, 1, &ops) {
            panic!("{why}");
        }
    }
}

/// A store with two base shards and a pending append and remove, plus a
/// fresh sketch to append; `ids.cskd` is a few hundred bytes.
fn small_store() -> (TempDir, Vec<CorrelationSketch>) {
    let dir = TempDir::new();
    let s = sketches(0..8);
    let pack = PackOptions {
        shards: 2,
        threads: 1,
    };
    pack_corpus(&dir.0, &s[..5], &pack).unwrap();
    append_corpus(&dir.0, &s[5..7], 1).unwrap();
    remove_from_corpus(&dir.0, &[s[1].id().to_string()], 1).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Ok);
    (dir, s)
}

/// Flip one byte inside the first record's payload of shard `file`,
/// leaving the file's size alone.
fn flip_byte(dir: &Path, file: &str) {
    let mut bytes = std::fs::read(dir.join(file)).unwrap();
    bytes[40] ^= 0x10;
    std::fs::write(dir.join(file), bytes).unwrap();
}

/// Every truncation and every single-bit flip of the directory: the
/// state is never `ok`; the append takes the fallback — shown
/// structurally on a twin store with a poisoned base shard, which only a
/// write that opens base shards can trip over — and writes exactly what
/// the reference writes.
#[test]
fn every_directory_truncation_and_bit_flip_falls_back() {
    let (dir, s) = small_store();
    let fresh = std::slice::from_ref(&s[7]);
    let before = snapshot(&dir.0);
    let good = before[DIRECTORY_NAME].clone();

    // What the write must come to, by the reference on a twin.
    let theirs = TempDir::new();
    materialize(&theirs.0, &before);
    let want = reference_append(&theirs.0, fresh).unwrap();
    let want_files = snapshot(&theirs.0);

    // A twin whose first base shard fails its checksum.
    let poisoned = TempDir::new();
    materialize(&poisoned.0, &before);
    flip_byte(&poisoned.0, "shard-0000.cskb");
    // With a directory that verifies the append never notices…
    let poisoned_files = snapshot(&poisoned.0);
    append_corpus(&poisoned.0, fresh, 1).unwrap();
    materialize(&poisoned.0, &poisoned_files);

    let damaged = (0..good.len())
        .map(|cut| good[..cut].to_vec())
        .chain((0..good.len() * 8).map(|bit| {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            bad
        }));
    for (case, bad) in damaged.enumerate() {
        for twin in [&dir, &poisoned] {
            std::fs::write(twin.path(DIRECTORY_NAME), &bad).unwrap();
        }
        assert_eq!(directory_state(&dir.0), DirectoryState::Stale, "{case}");
        // …and without one, it does: the fallback opened the shard.
        let err = append_corpus(&poisoned.0, fresh, 1).unwrap_err();
        assert!(
            matches!(
                &err,
                StoreError::Shard { file, source: SketchError::ChecksumMismatch { .. } }
                    if file == "shard-0000.cskb"
            ),
            "{case}: {err}"
        );
        let got = append_corpus(&dir.0, fresh, 1).unwrap();
        assert_eq!(got, want, "{case}");
        let mut files = snapshot(&dir.0);
        assert_eq!(files.insert(DIRECTORY_NAME.into(), good.clone()), Some(bad));
        assert!(files == want_files, "{case}: files differ");
        materialize(&dir.0, &before);
    }
}

/// The one contract that changed, as written down in `corpus.rs`: a
/// write opens no base shard, so a same-size flip inside one does not
/// fail the append — it fails the next load with the typed error naming
/// the shard, and the append neither hid nor worsened it.
#[test]
fn a_flipped_base_shard_fails_the_next_load_not_the_append() {
    let (dir, s) = small_store();
    let pristine = std::fs::read(dir.path("shard-0001.cskb")).unwrap();
    flip_byte(&dir.0, "shard-0001.cskb");

    let m = append_corpus(&dir.0, &s[7..], 1).unwrap();
    assert_eq!((m.generation, m.total), (3, 7));
    let m = remove_from_corpus(&dir.0, &[s[0].id().to_string()], 1).unwrap();
    assert_eq!((m.generation, m.total), (4, 6));

    for threads in [1usize, 2] {
        let err = read_corpus(&dir.0, threads).unwrap_err();
        assert!(
            matches!(
                &err,
                StoreError::Shard { file, source: SketchError::ChecksumMismatch { .. } }
                    if file == "shard-0001.cskb"
            ),
            "{err}"
        );
    }
    assert!(compact_corpus(&dir.0, &PackOptions::default()).is_err());

    // Byte restored, the store reads back with both writes in it.
    std::fs::write(dir.path("shard-0001.cskb"), pristine).unwrap();
    let ids: Vec<String> = read_corpus(&dir.0, 1)
        .unwrap()
        .iter()
        .map(|s| s.id().to_string())
        .collect();
    assert_eq!(
        ids,
        ["t2/k/v", "t3/k/v", "t4/k/v", "t5/k/v", "t6/k/v", "t7/k/v"]
    );
}

/// What a write does verify about the base: every shard is there, and of
/// the recorded size. Either failing sends it to the full load, whose
/// typed error it returns.
#[test]
fn a_missing_or_resized_base_shard_still_fails_the_append() {
    let (dir, s) = small_store();
    let before = snapshot(&dir.0);
    let theirs = TempDir::new();
    let shard = before["shard-0001.cskb"].clone();
    let mut longer = shard.clone();
    longer.push(0);
    for (what, bytes) in [
        ("missing", None),
        ("truncated", Some(shard[..shard.len() - 1].to_vec())),
        ("extended", Some(longer)),
    ] {
        let mut files = before.clone();
        match bytes {
            Some(bytes) => files.insert("shard-0001.cskb".into(), bytes),
            None => files.remove("shard-0001.cskb"),
        };
        for twin in [&dir, &theirs] {
            materialize(&twin.0, &files);
        }
        assert_eq!(directory_state(&dir.0), DirectoryState::Stale, "{what}");
        let got = append_corpus(&dir.0, &s[7..], 1);
        let err = got.as_ref().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::MissingShard { file } | StoreError::Shard { file, .. }
                    if file == "shard-0001.cskb"
            ),
            "{what}: {err}"
        );
        assert_eq!(
            outcome(got),
            outcome(reference_append(&theirs.0, &s[7..])),
            "{what}"
        );
        assert!(
            snapshot(&dir.0) == files,
            "{what}: a failed append wrote something"
        );
    }
}

/// How a store directory reopens.
#[derive(Debug, PartialEq)]
enum Reopened {
    /// To this generation, with these live ids.
    At(u64, Vec<String>),
    /// Loudly not at all: no manifest.
    MissingManifest,
}

fn reopen(dir: &Path) -> Reopened {
    match read_corpus_with_manifest(dir, 1) {
        Ok((manifest, live)) => {
            // Every other door agrees with the full load.
            let info = stat_corpus(dir).unwrap();
            assert_eq!(
                (info.generation, info.live),
                (manifest.generation, manifest.total)
            );
            Reopened::At(
                manifest.generation,
                live.iter().map(|s| s.id().to_string()).collect(),
            )
        }
        Err(StoreError::MissingManifest { .. }) => {
            assert!(matches!(
                stat_corpus(dir),
                Err(StoreError::MissingManifest { .. })
            ));
            assert!(matches!(
                append_corpus(dir, &[sketch(99)], 1),
                Err(StoreError::MissingManifest { .. })
            ));
            Reopened::MissingManifest
        }
        Err(other) => panic!("a third state: {other}"),
    }
}

const TMP_MANIFEST: &str = "manifest.cskm.tmp";

/// `append`/`rm` write the delta shard, then the temp manifest, then
/// rename it into place: the first two stops are the old generation, the
/// last is the new one.
#[test]
fn a_crash_at_any_step_of_a_write_leaves_the_old_or_the_new_generation() {
    let (dir, s) = small_store();
    let crashed = TempDir::new();
    type Write<'a> = &'a dyn Fn(&Path) -> Manifest;
    let writes: [Write<'_>; 2] = [&|dir| append_corpus(dir, &s[7..], 1).unwrap(), &|dir| {
        remove_from_corpus(dir, &[s[3].id().to_string()], 1).unwrap()
    }];
    for write in writes {
        let before = snapshot(&dir.0);
        let old = reopen(&dir.0);
        let manifest = write(&dir.0);
        let after = snapshot(&dir.0);
        let new = reopen(&dir.0);
        assert!(matches!(&new, Reopened::At(g, _) if *g == manifest.generation));
        assert_ne!(old, new);
        let delta = &manifest.deltas.last().unwrap().file;

        // Delta shard written.
        let mut files = before.clone();
        files.insert(delta.clone(), after[delta].clone());
        materialize(&crashed.0, &files);
        assert_eq!(reopen(&crashed.0), old);
        // Temp manifest written.
        files.insert(TMP_MANIFEST.into(), after[MANIFEST_NAME].clone());
        materialize(&crashed.0, &files);
        assert_eq!(reopen(&crashed.0), old);
        // Renamed.
        files.insert(MANIFEST_NAME.into(), files[TMP_MANIFEST].clone());
        files.remove(TMP_MANIFEST);
        assert!(files == after);
        materialize(&crashed.0, &files);
        assert_eq!(reopen(&crashed.0), new);
        assert_eq!(directory_state(&crashed.0), DirectoryState::Ok);
    }
}

/// `pack`/`compact` remove the manifest first and rename the new one in
/// last; every stop in between — k of n shards written, stale files
/// deleted, directory written, temp manifest written — is the loud
/// `MissingManifest`, and the two ends are the old and the new
/// generation. Never a third live view.
#[test]
fn a_crash_at_any_step_of_a_rewrite_is_loud_or_complete() {
    type Rewrite<'a> = &'a dyn Fn(&Path) -> Manifest;
    let repacked = sketches(20..29);
    let rewrites: [(&str, Rewrite<'_>); 3] = [
        // Fewer shards than before, more, and a different corpus.
        ("compact 2→1", &|dir| {
            compact_corpus(
                dir,
                &PackOptions {
                    shards: 1,
                    threads: 1,
                },
            )
            .unwrap()
        }),
        ("compact 2→3", &|dir| {
            compact_corpus(
                dir,
                &PackOptions {
                    shards: 3,
                    threads: 1,
                },
            )
            .unwrap()
        }),
        ("re-pack", &|dir| {
            pack_corpus(
                dir,
                &repacked,
                &PackOptions {
                    shards: 3,
                    threads: 1,
                },
            )
            .unwrap()
        }),
    ];
    for (what, rewrite) in rewrites {
        let (dir, _) = small_store();
        let crashed = TempDir::new();
        let before = snapshot(&dir.0);
        let old = reopen(&dir.0);
        let manifest = rewrite(&dir.0);
        let after = snapshot(&dir.0);
        let new = reopen(&dir.0);
        assert!(matches!(&new, Reopened::At(g, _) if *g == manifest.generation));
        assert_eq!(directory_state(&dir.0), DirectoryState::Ok, "{what}");

        let mut stops: Vec<(String, BTreeMap<String, Vec<u8>>)> = Vec::new();
        let mut files = before.clone();
        files.remove(MANIFEST_NAME);
        stops.push(("manifest removed".into(), files.clone()));
        for (k, shard) in manifest.shards.iter().enumerate() {
            files.insert(shard.file.clone(), after[&shard.file].clone());
            stops.push((
                format!("{} of {} shards written", k + 1, manifest.shards.len()),
                files.clone(),
            ));
        }
        files.retain(|name, _| after.contains_key(name) && name != DIRECTORY_NAME);
        stops.push(("stale files deleted".into(), files.clone()));
        files.insert(DIRECTORY_NAME.into(), after[DIRECTORY_NAME].clone());
        stops.push(("directory written".into(), files.clone()));
        files.insert(TMP_MANIFEST.into(), after[MANIFEST_NAME].clone());
        stops.push(("temp manifest written".into(), files.clone()));
        for (stop, files) in &stops {
            materialize(&crashed.0, files);
            assert_eq!(
                reopen(&crashed.0),
                Reopened::MissingManifest,
                "{what}: {stop}"
            );
        }
        files.insert(MANIFEST_NAME.into(), files[TMP_MANIFEST].clone());
        files.remove(TMP_MANIFEST);
        assert!(
            files == after,
            "{what}: the steps do not add up to the rewrite"
        );

        // The two ends. (`before` holds no temp file and `after` is the
        // rewrite's own output.)
        materialize(&crashed.0, &before);
        assert_eq!(reopen(&crashed.0), old, "{what}");
        materialize(&crashed.0, &after);
        assert_eq!(reopen(&crashed.0), new, "{what}");
    }
}

/// A directory stamped for another base is never used — the state a
/// build that knows no directories leaves behind when it compacts a
/// store that has one.
#[test]
fn a_directory_of_another_base_is_never_used() {
    let (dir, s) = small_store();
    let before = snapshot(&dir.0);
    compact_corpus(
        &dir.0,
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    let after = snapshot(&dir.0);
    assert_ne!(before[DIRECTORY_NAME], after[DIRECTORY_NAME]);

    // The new base beside the old base's directory, which does not list
    // t5 and t6 (appended, then folded in) and still lists t1 (removed).
    std::fs::write(dir.path(DIRECTORY_NAME), &before[DIRECTORY_NAME]).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Stale);
    let live = read_corpus(&dir.0, 1).unwrap();
    let err = append_corpus(&dir.0, &s[5..6], 1).unwrap_err();
    assert!(
        matches!(err.as_sketch_error(), Some(SketchError::DuplicateId(id)) if id == "t5/k/v"),
        "{err}"
    );
    let err = remove_from_corpus(&dir.0, &[s[1].id().to_string()], 1).unwrap_err();
    assert!(
        matches!(err.as_sketch_error(), Some(SketchError::TombstoneForUnknownId(id)) if id == "t1/k/v"),
        "{err}"
    );
    append_corpus(&dir.0, &s[1..2], 1).unwrap();
    assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), live.len() + 1);

    // And the old base beside the new base's directory.
    let mut files = before.clone();
    files.insert(DIRECTORY_NAME.into(), after[DIRECTORY_NAME].clone());
    materialize(&dir.0, &files);
    assert_eq!(directory_state(&dir.0), DirectoryState::Stale);
    let err = append_corpus(&dir.0, &s[1..2], 1);
    assert!(err.is_ok(), "t1 was removed from the old base's log");
}

/// The generation stamp alone: compacting an unmutated store rewrites the
/// same shards, so the two bases' directories differ in nothing else.
#[test]
fn a_directory_of_an_equal_but_older_base_is_stale() {
    let dir = TempDir::new();
    let pack = PackOptions {
        shards: 2,
        threads: 1,
    };
    pack_corpus(&dir.0, &sketches(0..5), &pack).unwrap();
    let before = snapshot(&dir.0);
    compact_corpus(&dir.0, &pack).unwrap();
    let after = snapshot(&dir.0);
    assert_eq!(before["shard-0000.cskb"], after["shard-0000.cskb"]);
    assert_eq!(before["shard-0001.cskb"], after["shard-0001.cskb"]);
    assert_ne!(before[DIRECTORY_NAME], after[DIRECTORY_NAME]);
    std::fs::write(dir.path(DIRECTORY_NAME), &before[DIRECTORY_NAME]).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Stale);
}

/// A store written by a build that knows no directories is this build's
/// store minus one file, and is read, appended to and compacted as it is.
#[test]
fn a_store_without_a_directory_needs_no_conversion() {
    let (dir, s) = small_store();
    std::fs::remove_file(dir.path(DIRECTORY_NAME)).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Absent);
    assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), 6);
    append_corpus(&dir.0, &s[7..], 1).unwrap();
    remove_from_corpus(&dir.0, &[s[0].id().to_string()], 1).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Absent);
    // The next rewrite of the base gives it one.
    compact_corpus(&dir.0, &PackOptions::default()).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Ok);
    assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), 6);
}

/// A base whose sketches disagree on the hasher — only a store packed
/// before packing refused it — has no single hasher to record: its
/// rewrite writes no directory, and it keeps the write path it had.
#[test]
fn a_mixed_hasher_base_gets_no_directory() {
    let dir = TempDir::new();
    let mixed = [sketch(0), alien(1)];
    sketch_store::write_shard(&dir.path("shard-0000.cskb"), &mixed).unwrap();
    let shard = sketch_store::ShardMeta {
        file: "shard-0000.cskb".into(),
        count: 2,
    };
    Manifest::base(2, vec![shard]).save(&dir.0).unwrap();
    compact_corpus(&dir.0, &PackOptions::default()).unwrap();
    assert_eq!(directory_state(&dir.0), DirectoryState::Absent);
    assert_eq!(read_corpus(&dir.0, 1).unwrap(), mixed);
    let theirs = TempDir::new();
    materialize(&theirs.0, &snapshot(&dir.0));
    assert_eq!(
        outcome(append_corpus(&dir.0, &[alien(2)], 1)),
        outcome(reference_append(&theirs.0, &[alien(2)]))
    );
}
