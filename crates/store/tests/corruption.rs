//! The corruption battery: every way a shard file or corpus can be
//! damaged must surface as a *typed* [`SketchError`] — never a panic,
//! never a silent partial load.
//!
//! The centerpiece bit-flips every byte of a small shard (each byte with
//! a rotating bit position) and asserts that every single flip is
//! detected.

use correlation_sketches::{
    CorrelationSketch, DeltaRecord, SketchBuilder, SketchConfig, SketchError,
};
use sketch_store::shard::{decode_delta_shard, decode_shard, encode_delta_shard, encode_shard};
use sketch_store::{
    append_corpus, pack_corpus, read_corpus, read_shard, remove_from_corpus, write_delta_shard,
    write_shard, Manifest, PackOptions, StoreError, DIRECTORY_NAME, FORMAT_VERSION, MANIFEST_NAME,
};
use sketch_table::ColumnPair;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cskb-corruption-{tag}-{}", std::process::id()));
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

fn sketches(n: usize) -> Vec<CorrelationSketch> {
    let b = SketchBuilder::new(SketchConfig::with_size(8));
    (0..n)
        .map(|t| {
            b.build(&ColumnPair::new(
                format!("t{t}"),
                "k",
                "v",
                (0..40).map(|i| format!("key-{i}")).collect(),
                (0..40).map(|i| (i * (t + 1)) as f64).collect(),
            ))
        })
        .collect()
}

/// Every prefix of a shard file is rejected with a typed error.
#[test]
fn every_truncation_is_detected() {
    let bytes = encode_shard(&sketches(3)).unwrap();
    for cut in 0..bytes.len() {
        match decode_shard(&bytes[..cut]) {
            Err(
                SketchError::Truncated { .. }
                | SketchError::Corrupt(_)
                | SketchError::BadMagic { .. }
                | SketchError::UnsupportedVersion { .. }
                | SketchError::ChecksumMismatch { .. },
            ) => {}
            other => panic!(
                "truncation at {cut}/{} not detected: {other:?}",
                bytes.len()
            ),
        }
    }
}

/// Bit-flip every byte of a small shard (rotating which bit is flipped);
/// every flip must produce a typed error, not a panic and not an Ok.
#[test]
fn every_byte_flip_is_detected() {
    let good = encode_shard(&sketches(2)).unwrap();
    assert!(decode_shard(&good).is_ok());
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 1 << (i % 8);
        match decode_shard(&bad) {
            Err(
                SketchError::Truncated { .. }
                | SketchError::Corrupt(_)
                | SketchError::BadMagic { .. }
                | SketchError::UnsupportedVersion { .. }
                | SketchError::ChecksumMismatch { .. }
                | SketchError::DuplicateId(_),
            ) => {}
            Ok(_) => panic!("flip of byte {i} (bit {}) went undetected", i % 8),
            Err(other) => panic!("flip of byte {i} gave unexpected error {other:?}"),
        }
    }
}

/// Flipping checksum bytes specifically must be diagnosed as a checksum
/// mismatch on the right record.
#[test]
fn flipped_checksum_bytes_name_the_record() {
    let s = sketches(2);
    let bytes = encode_shard(&s).unwrap();
    // Records start after the 12-byte header. Record 0: 4-byte length +
    // payload + 8-byte checksum.
    let len0 = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let ck0_start = 16 + len0;
    for off in ck0_start..ck0_start + 8 {
        let mut bad = bytes.clone();
        bad[off] ^= 0x01;
        match decode_shard(&bad) {
            Err(SketchError::ChecksumMismatch { record: 0, .. }) => {}
            other => panic!("checksum flip at {off}: {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let bytes = encode_shard(&sketches(1)).unwrap();

    let mut bad = bytes.clone();
    bad[..4].copy_from_slice(b"JSON");
    assert_eq!(
        decode_shard(&bad).unwrap_err(),
        SketchError::BadMagic { found: *b"JSON" }
    );

    let mut bad = bytes;
    bad[4..6].copy_from_slice(&7u16.to_le_bytes());
    assert_eq!(
        decode_shard(&bad).unwrap_err(),
        SketchError::UnsupportedVersion {
            found: 7,
            supported: FORMAT_VERSION
        }
    );
}

#[test]
fn duplicate_record_ids_are_rejected_on_read() {
    let dir = TempDir::new("dup-read");
    let s = sketches(2);
    // Hand-assemble a corpus whose two shards contain the same sketch.
    write_shard(&dir.path("shard-0000.cskb"), &s).unwrap();
    write_shard(&dir.path("shard-0001.cskb"), &s[..1]).unwrap();
    Manifest::base(
        3,
        vec![
            sketch_store::ShardMeta {
                file: "shard-0000.cskb".into(),
                count: 2,
            },
            sketch_store::ShardMeta {
                file: "shard-0001.cskb".into(),
                count: 1,
            },
        ],
    )
    .save(&dir.0)
    .unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::DuplicateId(id)) if id == "t0/k/v"
        ),
        "{err}"
    );
    // Duplicates within a single shard are equally fatal.
    write_shard(&dir.path("solo.cskb"), &[s[0].clone(), s[0].clone()]).unwrap();
    let loaded = read_shard(&dir.path("solo.cskb")).unwrap();
    assert_eq!(loaded.len(), 2, "shard read is id-agnostic");
    Manifest::base(
        2,
        vec![sketch_store::ShardMeta {
            file: "solo.cskb".into(),
            count: 2,
        }],
    )
    .save(&dir.0)
    .unwrap();
    assert!(matches!(
        read_corpus(&dir.0, 1).unwrap_err().as_sketch_error(),
        Some(SketchError::DuplicateId(_))
    ));
}

#[test]
fn truncated_shard_file_on_disk_is_detected() {
    let dir = TempDir::new("truncated-file");
    let s = sketches(4);
    pack_corpus(
        &dir.0,
        &s,
        &PackOptions {
            shards: 1,
            threads: 1,
        },
    )
    .unwrap();
    let shard = dir.path("shard-0000.cskb");
    let full = std::fs::read(&shard).unwrap();
    for cut in [0, 3, 11, full.len() / 2, full.len() - 1] {
        std::fs::write(&shard, &full[..cut]).unwrap();
        let err = read_corpus(&dir.0, 1).unwrap_err();
        assert!(
            err.as_sketch_error().is_some(),
            "cut={cut} must be typed corruption, got {err}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let dir = TempDir::new("trailing");
    let s = sketches(2);
    pack_corpus(
        &dir.0,
        &s,
        &PackOptions {
            shards: 1,
            threads: 1,
        },
    )
    .unwrap();
    let shard = dir.path("shard-0000.cskb");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes.extend_from_slice(b"extra");
    std::fs::write(&shard, bytes).unwrap();
    assert!(matches!(
        read_corpus(&dir.0, 1).unwrap_err().as_sketch_error(),
        Some(SketchError::Corrupt(_))
    ));
}

#[test]
fn corrupt_manifest_is_typed() {
    let dir = TempDir::new("manifest");
    pack_corpus(&dir.0, &sketches(2), &PackOptions::default()).unwrap();
    std::fs::write(dir.path(MANIFEST_NAME), "here be dragons\n").unwrap();
    assert!(matches!(
        read_corpus(&dir.0, 1).unwrap_err().as_sketch_error(),
        Some(SketchError::Corrupt(_))
    ));
    std::fs::remove_file(dir.path(MANIFEST_NAME)).unwrap();
    // A directory with no manifest at all is typed as "not a store", so
    // front ends never print a raw `No such file or directory` string.
    assert!(matches!(
        read_corpus(&dir.0, 1),
        Err(StoreError::MissingManifest { .. })
    ));
}

/// A mutated corpus fixture: 4 base sketches, one delta appending two
/// more, one delta tombstoning a base sketch.
fn mutated_store(tag: &str) -> (TempDir, Vec<CorrelationSketch>) {
    let dir = TempDir::new(tag);
    let s = sketches(6);
    pack_corpus(
        &dir.0,
        &s[..4],
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    append_corpus(&dir.0, &s[4..6], 1).unwrap();
    remove_from_corpus(&dir.0, &[s[1].id().to_string()], 1).unwrap();
    (dir, s)
}

/// Every prefix of a delta shard file is rejected with a typed error.
#[test]
fn every_delta_truncation_is_detected() {
    let s = sketches(3);
    let bytes = encode_delta_shard(&[
        DeltaRecord::Sketch(s[0].clone()),
        DeltaRecord::Tombstone(s[1].id().to_string()),
        DeltaRecord::Sketch(s[2].clone()),
    ])
    .unwrap();
    for cut in 0..bytes.len() {
        match decode_delta_shard(&bytes[..cut]) {
            Err(
                SketchError::Truncated { .. }
                | SketchError::Corrupt(_)
                | SketchError::BadMagic { .. }
                | SketchError::UnsupportedVersion { .. }
                | SketchError::ChecksumMismatch { .. },
            ) => {}
            other => panic!(
                "delta truncation at {cut}/{} not detected: {other:?}",
                bytes.len()
            ),
        }
    }
}

/// Bit-flip every byte of a delta shard holding both record kinds
/// (rotating which bit is flipped); every flip must produce a typed
/// error, not a panic and not an Ok.
#[test]
fn every_delta_byte_flip_is_detected() {
    let s = sketches(2);
    let good = encode_delta_shard(&[
        DeltaRecord::Sketch(s[0].clone()),
        DeltaRecord::Tombstone(s[1].id().to_string()),
    ])
    .unwrap();
    assert!(decode_delta_shard(&good).is_ok());
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 1 << (i % 8);
        match decode_delta_shard(&bad) {
            Err(
                SketchError::Truncated { .. }
                | SketchError::Corrupt(_)
                | SketchError::BadMagic { .. }
                | SketchError::UnsupportedVersion { .. }
                | SketchError::ChecksumMismatch { .. }
                | SketchError::DuplicateId(_),
            ) => {}
            Ok(_) => panic!("delta flip of byte {i} (bit {}) went undetected", i % 8),
            Err(other) => panic!("delta flip of byte {i} gave unexpected error {other:?}"),
        }
    }
}

/// Truncating a delta shard *file* of a mutated corpus surfaces as typed
/// corruption naming the delta file — never a partial replay.
#[test]
fn truncated_delta_file_on_disk_is_detected() {
    let (dir, _) = mutated_store("delta-truncated");
    let delta = dir.path("delta-000001.cskb");
    let full = std::fs::read(&delta).unwrap();
    for cut in [0, 5, 11, full.len() / 2, full.len() - 1] {
        std::fs::write(&delta, &full[..cut]).unwrap();
        let err = read_corpus(&dir.0, 1).unwrap_err();
        assert!(
            err.as_sketch_error().is_some(),
            "cut={cut} must be typed corruption, got {err}"
        );
        assert!(
            err.to_string().contains("delta-000001.cskb"),
            "cut={cut}: {err}"
        );
    }
}

/// A tombstone naming an id that is not live at its point of the log is
/// the typed TombstoneForUnknownId — both via the write path and when a
/// hand-assembled store smuggles one in.
#[test]
fn tombstone_for_unknown_id_is_typed() {
    let (dir, s) = mutated_store("tomb-unknown");
    // Write path: unknown and already-removed ids are rejected up front.
    for id in ["ghost/k/v", "t1/k/v"] {
        let err = remove_from_corpus(&dir.0, &[id.to_string()], 1).unwrap_err();
        assert!(
            matches!(
                err.as_sketch_error(),
                Some(SketchError::TombstoneForUnknownId(bad)) if bad == id
            ),
            "{err}"
        );
    }
    // Read path: overwrite the tombstone delta with one for an id that
    // never existed; the replay must fail typed, naming the delta file.
    write_delta_shard(
        &dir.path("delta-000002.cskb"),
        &[DeltaRecord::Tombstone("never/k/v".into())],
    )
    .unwrap();
    for threads in [1usize, 2, 7] {
        let err = read_corpus(&dir.0, threads).unwrap_err();
        assert!(
            matches!(
                err.as_sketch_error(),
                Some(SketchError::TombstoneForUnknownId(id)) if id == "never/k/v"
            ),
            "threads={threads}: {err}"
        );
        assert!(err.to_string().contains("delta-000002.cskb"), "{err}");
    }
    let _ = s;
}

/// Stale and duplicate generation numbers in the manifest are the typed
/// StaleGeneration — a mis-merged manifest can never replay out of order.
#[test]
fn stale_and_duplicate_manifest_generations_are_typed() {
    let (dir, _) = mutated_store("stale-gen");
    let manifest_text = std::fs::read_to_string(dir.path(MANIFEST_NAME)).unwrap();
    // Duplicate generation: stamp the second delta with the first's.
    let dup = manifest_text.replace("delta-000002.cskb 1 2", "delta-000002.cskb 1 1");
    std::fs::write(dir.path(MANIFEST_NAME), dup).unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::StaleGeneration {
                found: 1,
                expected: 2
            })
        ),
        "{err}"
    );
    // Regressed generation: delta stamped at the base generation.
    let stale = manifest_text.replace("delta-000001.cskb 2 1", "delta-000001.cskb 2 0");
    std::fs::write(dir.path(MANIFEST_NAME), stale).unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::StaleGeneration { found: 0, .. })
        ),
        "{err}"
    );
    // Generation header beyond the last delta.
    let ahead = manifest_text.replace("generation 2", "generation 9");
    std::fs::write(dir.path(MANIFEST_NAME), ahead).unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::StaleGeneration { .. } | SketchError::Corrupt(_))
        ),
        "{err}"
    );
}

/// The manifest's live total is a number a file merely states: forging it
/// (on a store with a delta line, where no shard sum cross-checks it at
/// parse) must end in the typed live-count mismatch on every load and
/// every write — never in a view pre-sized from it (`capacity overflow`,
/// or an aborting allocation for a smaller forgery).
#[test]
fn forged_manifest_total_is_typed_not_a_panic() {
    let (dir, s) = mutated_store("forged-total");
    let honest = std::fs::read_to_string(dir.path(MANIFEST_NAME)).unwrap();
    assert!(honest.contains("\nsketches 5\n"), "{honest}");
    let fresh = sketches(7).pop().unwrap();
    for forged in ["1152921504606846976", "18446744073709551615", "40000000000"] {
        let text = honest.replace("\nsketches 5\n", &format!("\nsketches {forged}\n"));
        std::fs::write(dir.path(MANIFEST_NAME), text).unwrap();
        let outcomes = [
            read_corpus(&dir.0, 1).map(|_| ()),
            append_corpus(&dir.0, std::slice::from_ref(&fresh), 1).map(|_| ()),
            remove_from_corpus(&dir.0, &[s[0].id().to_string()], 1).map(|_| ()),
        ];
        for outcome in outcomes {
            let err = outcome.unwrap_err();
            assert!(
                matches!(
                    err.as_sketch_error(),
                    Some(SketchError::Corrupt(msg))
                        if msg.contains("5 live records") && msg.contains(forged)
                ),
                "{forged}: {err}"
            );
        }
    }
    // Nothing was written on the way; the honest manifest reads again.
    std::fs::write(dir.path(MANIFEST_NAME), honest).unwrap();
    assert_eq!(read_corpus(&dir.0, 1).unwrap().len(), 5);
}

/// A directory that verifies — checksum, base generation, record count,
/// shard sizes — yet names other ids, or another hasher, than the shards
/// beside it (same-sized shards swapped in under it) is caught by the
/// cross-check of every full load.
#[test]
fn directory_disagreeing_with_the_base_shards_is_typed() {
    let pack = PackOptions {
        shards: 2,
        threads: 1,
    };
    let ours = TempDir::new("directory-ours");
    pack_corpus(&ours.0, &sketches(4), &pack).unwrap();
    let directory = std::fs::read(ours.path(DIRECTORY_NAME)).unwrap();

    // Same shapes, so same shard sizes: four other ids, then the same
    // four ids under another hasher.
    let other_ids = sketches(8).split_off(4);
    let alien = SketchBuilder::new(
        SketchConfig::with_size(8).hasher(sketch_hashing::TupleHasher::new_64(99)),
    );
    let other_hasher: Vec<CorrelationSketch> = (0..4)
        .map(|t| {
            alien.build(&ColumnPair::new(
                format!("t{t}"),
                "k",
                "v",
                (0..40).map(|i| format!("key-{i}")).collect(),
                (0..40).map(|i| (i * (t + 1)) as f64).collect(),
            ))
        })
        .collect();
    for (theirs, first) in [(other_ids, "t4/k/v"), (other_hasher, "t0/k/v")] {
        let dir = TempDir::new("directory-theirs");
        pack_corpus(&dir.0, &theirs, &pack).unwrap();
        assert_eq!(read_corpus(&dir.0, 1).unwrap(), theirs);
        std::fs::write(dir.path(DIRECTORY_NAME), &directory).unwrap();
        for threads in [1usize, 2] {
            let err = read_corpus(&dir.0, threads).unwrap_err();
            assert!(
                matches!(
                    err.as_sketch_error(),
                    Some(SketchError::Corrupt(msg))
                        if msg.contains(DIRECTORY_NAME) && msg.contains(first)
                ),
                "{err}"
            );
        }
    }
}

/// The sorted index is what a write searches, so a load holds it to the
/// id list too: two entries swapped (and the checksum made good again, as
/// no accident would) verify, and fail the cross-check.
#[test]
fn directory_with_an_unsorted_index_is_typed() {
    let dir = TempDir::new("directory-index");
    pack_corpus(&dir.0, &sketches(4), &PackOptions::default()).unwrap();
    let mut bytes = std::fs::read(dir.path(DIRECTORY_NAME)).unwrap();
    // The file ends: … | 4 index entries (u32 each) | checksum (u64).
    let index = bytes.len() - 8 - 4 * 4;
    bytes.copy_within(index..index + 4, index + 8);
    let body = bytes.len() - 8;
    let sum = sketch_hashing::murmur3::murmur3_x64_128(&bytes[..body], 0).0;
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(dir.path(DIRECTORY_NAME), bytes).unwrap();
    assert_eq!(
        sketch_store::stat_corpus(&dir.0).unwrap().directory,
        sketch_store::DirectoryState::Ok
    );
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::Corrupt(msg))
                if msg.contains(DIRECTORY_NAME) && msg.contains("sorted index")
        ),
        "{err}"
    );
}

/// A manifest referencing shard files that are missing on disk is the
/// typed MissingShard naming the file — for base and delta shards alike.
#[test]
fn manifest_referencing_missing_files_is_typed() {
    let (dir, _) = mutated_store("missing-ref");
    for (victim, threads) in [("shard-0001.cskb", 1usize), ("delta-000002.cskb", 2)] {
        let path = dir.path(victim);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let err = read_corpus(&dir.0, threads).unwrap_err();
        assert!(
            matches!(&err, StoreError::MissingShard { file } if file == victim),
            "{victim}: {err}"
        );
        assert!(err.to_string().contains(victim), "{err}");
        assert!(err.as_sketch_error().is_none(), "not corruption: {err}");
        std::fs::write(&path, bytes).unwrap();
    }
    // Restored intact, the corpus reads fine again.
    assert_eq!(read_corpus(&dir.0, 2).unwrap().len(), 5);
}

/// A duplicate id smuggled in through a delta append (bypassing the
/// write-path check) is still rejected at read time.
#[test]
fn duplicate_append_id_rejected_on_read() {
    let (dir, s) = mutated_store("dup-append");
    // Overwrite the append delta so it re-appends a live base sketch.
    write_delta_shard(
        &dir.path("delta-000001.cskb"),
        &[
            DeltaRecord::Sketch(s[4].clone()),
            DeltaRecord::Sketch(s[0].clone()),
        ],
    )
    .unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::DuplicateId(id)) if id == "t0/k/v"
        ),
        "{err}"
    );
}

/// Swapping a base shard in where a delta is expected (and vice versa)
/// is typed corruption naming the kind mismatch.
#[test]
fn shard_kind_swaps_are_detected() {
    let (dir, s) = mutated_store("kind-swap");
    write_shard(&dir.path("delta-000001.cskb"), &s[4..6]).unwrap();
    let err = read_corpus(&dir.0, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::Corrupt(msg)) if msg.contains("base shard")
        ),
        "{err}"
    );
}

/// Parallel readers surface the same typed error as serial ones.
#[test]
fn corruption_is_detected_at_every_thread_count() {
    let dir = TempDir::new("parallel-detect");
    let s = sketches(8);
    pack_corpus(
        &dir.0,
        &s,
        &PackOptions {
            shards: 4,
            threads: 2,
        },
    )
    .unwrap();
    let shard = dir.path("shard-0002.cskb");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() - 9; // inside the last record's checksum
    bytes[mid] ^= 0x20;
    std::fs::write(&shard, bytes).unwrap();
    for threads in [1usize, 2, 7, 16] {
        let err = read_corpus(&dir.0, threads).unwrap_err();
        assert!(
            matches!(
                err.as_sketch_error(),
                Some(SketchError::ChecksumMismatch { .. })
            ),
            "threads={threads}: {err}"
        );
        // The error names the offending shard so an operator of an
        // N-shard store knows which file to replace.
        assert!(
            err.to_string().contains("shard-0002.cskb"),
            "threads={threads}: {err}"
        );
    }
}
