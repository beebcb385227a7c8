//! **sketch-store** — the sharded on-disk binary corpus store, with
//! append-only delta shards, tombstone deletes, and offline compaction.
//!
//! The paper's Section 5 experiments assume a pre-built corpus of
//! sketches that can be loaded and queried at scale ("synopses can be
//! pre-computed and indexed"). This crate is that corpus on disk — the
//! one persisted form of a sketch collection: multiple compact binary
//! shard files (checksummed `correlation_sketches::binary` records) plus
//! a small manifest, written and read in parallel with the workspace's
//! deterministic-chunking pattern. On top
//! of the static base shards it supports *mutation without re-packing*:
//! [`append_corpus`] and [`remove_from_corpus`] write small delta shards,
//! and [`compact_corpus`] folds them back into base shards offline.
//!
//! # Corpus layout on disk
//!
//! ```text
//! <corpus-dir>/
//!   manifest.cskm        text manifest: version, generations, totals,
//!                        shard + delta tables
//!   shard-0000.cskb      base shard files, contiguous slices of the
//!   shard-0001.cskb      packed corpus in input order
//!   …
//!   ids.cskd             id directory: the base records' ids + hasher
//!   delta-000001.cskb    delta shard files, one per mutation, in
//!   delta-000002.cskb    generation order
//!   …
//! ```
//!
//! # Shard file format (`.cskb`), byte by byte
//!
//! All integers are little-endian. A shard is a fixed 12-byte header
//! followed by `count` length-prefixed, checksummed records:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `43 53 4B 42` (ASCII `"CSKB"`) |
//! | 4      | 2    | format version (`u16`, currently `1`) |
//! | 6      | 2    | shard kind: `0` = base, `1` = delta |
//! | 8      | 4    | record count (`u32`) |
//! | 12     | …    | `count` records, back to back |
//!
//! Each record is:
//!
//! | offset | size  | field |
//! |--------|-------|-------|
//! | 0      | 4     | payload length `L` (`u32`) |
//! | 4      | `L`   | record payload (see below) |
//! | 4 + L  | 8     | checksum (`u64`): low word of MurmurHash3 x64-128 of the payload, seed 0 |
//!
//! In a **base** shard every payload is one sketch in the
//! [`correlation_sketches::binary`] layout — the kind field occupies the
//! bytes the pre-delta format reserved as zero, so every pre-delta shard
//! file is a valid base shard byte for byte. In a **delta** shard every
//! payload opens with a tag byte:
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | `0` | append | one sketch payload ([`correlation_sketches::binary`]) |
//! | `1` | tombstone | `u32` id length + sketch id (UTF-8) |
//!
//! The checksum covers the tag *and* the body, so a flipped tag can
//! never turn an append into a delete (or vice versa) undetected. The
//! file must end exactly after the last record — trailing bytes are
//! corruption. Readers verify, in order: magic, version, kind,
//! per-record length bounds, per-record checksum (before any payload
//! parsing), payload decode, and finally exact end-of-file. Every
//! failure is a typed [`SketchError`] wrapped in [`StoreError`] — no
//! panics, and never a silent partial load.
//!
//! # Manifest format (`manifest.cskm`)
//!
//! A small line-oriented text file (text, so a human can inspect a corpus
//! with `cat`). A never-mutated store writes version 1, byte-identical to
//! the pre-delta format:
//!
//! ```text
//! cskb-manifest 1
//! sketches <total-record-count>
//! shard <file-name> <record-count>
//! …one line per base shard, in corpus order…
//! ```
//!
//! Once a store has been mutated it writes version 2:
//!
//! ```text
//! cskb-manifest 2
//! generation <latest-generation>
//! base <generation-of-the-base-shards>
//! sketches <live-record-count>
//! shard <file-name> <record-count>
//! delta <file-name> <record-count> <generation>
//! …delta lines in strictly increasing generation order…
//! ```
//!
//! # Id directory format (`ids.cskd`), byte by byte
//!
//! The ids of the base records, listed in shard order and indexed in
//! sorted order, so that a write ([`append_corpus`],
//! [`remove_from_corpus`]) can ask whether an id is in the base by binary
//! search — without opening a base shard, or visiting the ids it does not
//! name; see [`corpus`] for that contract. All integers are
//! little-endian:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `43 53 4B 44` (ASCII `"CSKD"`) |
//! | 4      | 2    | format version (`u16`, currently `1`) |
//! | 6      | 1    | hasher code: `1` = 64-bit MurmurHash3 (a sketch payload's own code), `2` = no base record |
//! | 7      | 8    | hasher seed (`u64`; `0` when there is no base record) |
//! | 15     | 8    | base generation the directory describes (`u64`) |
//! | 23     | 8    | record count `N` (`u64`) |
//! | 31     | 4    | base shard count `S` (`u32`) |
//! | 35     | 8·S  | byte length of each base shard file, manifest order (`u64` each) |
//! | +0     | …    | id list: `N` ids in shard order, `u32` length + UTF-8 bytes each |
//! | +0     | 4·N  | sorted index: the byte offset of each id within the id list (`u32` each), ordered by id bytes |
//! | end−8  | 8    | checksum (`u64`): low word of MurmurHash3 x64-128 of every preceding byte, seed 0 |
//!
//! One hasher serves the whole base because [`pack_corpus`] refuses a
//! corpus of mixed hashers. The directory is *derived* data and is used
//! only when it verifies: the checksum, then the stamp — base generation
//! and record count against the manifest, each shard length against a
//! stat of the file. Absent, stamped for another base, truncated or
//! bit-flipped, it is ignored and the reader decodes the base shards
//! instead; every full load cross-checks a verified directory — the id
//! list against the ids it decoded, the sorted index against the id
//! list ([`SketchError::Corrupt`] on disagreement).
//!
//! **Write order.** A base rewrite ([`pack_corpus`], [`compact_corpus`],
//! and so [`shard_corpus`]) removes the manifest, writes the shards,
//! deletes stale files (the previous directory among them), writes the
//! directory, then renames the new manifest into place: a manifest never
//! appears before the directory of its base. Appends and removes never
//! touch the directory — it describes the base, and they only add to the
//! delta log.
//!
//! # Generations
//!
//! Every mutation advances the store generation by one: a fresh pack is
//! generation 0, each append/remove stamps its delta shard with the new
//! generation, and a compact rewrites the base at generation `G + 1`
//! (folding all deltas in) with no delta lines left. Readers enforce the
//! progression — delta generations must strictly increase from just past
//! the base generation up to the store generation, else the typed
//! [`SketchError::StaleGeneration`] — and incremental consumers
//! ([`read_deltas_since`], `sketch-index`'s `refresh_from_store`) use the
//! same error to learn that the base was compacted underneath them and a
//! rebuild is required.
//!
//! # Determinism
//!
//! [`pack_corpus`] splits the input into contiguous chunks, so shard `i`
//! holds a deterministic slice of the input, and reading replays deltas
//! serially in generation order; [`read_corpus`]`(dir, threads)` returns
//! the *live view* — base survivors in pack order, then surviving
//! appends in append order — bit-identically for every thread count, and
//! [`compact_corpus`] preserves it exactly. This is the order contract
//! `sketch-index` builds doc ids on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod directory;
pub mod error;
pub mod info;
pub mod manifest;
pub mod partition;
// R6 (README "Static analysis"): the shard codec has no `as` casts.
#[deny(clippy::as_conversions)]
pub mod shard;

pub use corpus::{
    append_corpus, compact_corpus, pack_corpus, read_corpus, read_corpus_with_manifest,
    read_deltas_since, remove_from_corpus, PackOptions,
};
pub use correlation_sketches::{DeltaRecord, SketchError};
pub use directory::{DirectoryState, DIRECTORY_NAME};
pub use error::StoreError;
pub use info::{stat_corpus, DeltaInfo, ShardInfo, StoreInfo};
pub use manifest::{DeltaMeta, Manifest, ShardMeta, MANIFEST_NAME};
pub use partition::{shard_corpus, PartitionManifest, PartitionShard};
pub use shard::{read_shard, write_delta_shard, write_shard, FORMAT_VERSION};
