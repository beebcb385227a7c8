//! The inverted index over sketch key hashes, incrementally maintained
//! under inserts and removes.
//!
//! # Doc ids under mutation
//!
//! A [`DocId`] is the sketch's position in the **live corpus order** —
//! surviving inserts in insertion order. Removing a sketch therefore
//! shifts the doc ids of everything inserted after it down by one, which
//! is exactly how a from-scratch rebuild over the surviving sketches
//! would number them. This is the index's central equivalence contract:
//! after *any* interleaving of inserts and removes, the index is
//! bit-identical — doc ids, tie-breaks, query reports — to
//! [`SketchIndex::from_sketches`] over the surviving sketches in
//! insertion order (and to [`SketchIndex::from_store`] over a store that
//! replayed the same log). Because ids shift, removal is keyed by the
//! stable sketch id string, not by doc id.
//!
//! Internally the index never renumbers anything: sketches live in
//! append-only *slots*, posting lists hold slot numbers, and a sorted
//! slot→doc translation (`live`) is maintained at the edges. Removal
//! incrementally unthreads the sketch from its posting lists
//! (`O(sketch size · posting length)`) rather than rebuilding.
//!
//! # Postings carry values
//!
//! A posting is `(slot, x_k)`: the sketch's slot **and the value it
//! stores for that key** — `h(k) → [(slot, x_k)]`, kept per key as two
//! parallel columns (`slots`, `values`) and maintained by the same
//! `insert`/`remove`/`compact` that maintain the slots. Retrieval already
//! visits every (query key, candidate) match; with the value in the
//! posting the same visit yields the join row `(x_query, y_candidate)`,
//! so [`SketchIndex::retrieve_joined`] hands the estimators each
//! winner's join sample without a merge walk per candidate. The price is
//! memory: 12 bytes per posting (`u32` slot + `f64` value) where a
//! slot-only posting took 4, plus one more `Vec` header per distinct
//! key. Counting reads only the `slots` column, so the count walk touches
//! the same bytes as before. Removal finds the slot by binary search
//! (slots only grow, so every list is ascending) and shifts both columns
//! — the same `O(sketch size · posting length)` bound.
//!
//! # Bulk construction
//!
//! [`SketchIndex::from_sketches`] and [`SketchIndex::from_store`] build
//! the same index `insert` would, in bulk: a counting pass sizes every
//! posting list before it is filled, so each is allocated once at its
//! final length, and `from_store` inverts contiguous slot ranges on its
//! loader threads and appends the parts per key in slot order.
//!
//! # The postings map skips SipHash
//!
//! A [`KeyHash`] is already the output of a seeded murmur3, so the map
//! hashes it with one multiply instead of SipHash — which is what pays
//! for the fatter postings at load time. Hash flooding is not a concern
//! here: only operator-packed corpora are ever *inserted* (`insert`,
//! `apply_delta`, the store loaders); query keys from the outside are
//! only ever *looked up*, which cannot grow a bucket chain.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use correlation_sketches::{CorrelationSketch, DeltaRecord, SketchError};
use sketch_hashing::{KeyHash, TupleHasher};

/// Identifier of an indexed sketch: its position in the live corpus
/// order. Dense (`0..len`), shifts down on removal of an earlier sketch —
/// see the module docs for the equivalence contract this buys.
pub type DocId = u32;

/// Hasher of the postings map (module docs: why not SipHash). The
/// multiply by an odd constant carries the key's low bits into the high
/// ones, which the 32-bit tuple hasher leaves zero and the table reads
/// its control bytes from.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHashHasher(u64);

impl Hasher for KeyHashHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// `KeyHash` hashes through `write_u64`; this keeps the trait total.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }
}

/// One key's postings as two parallel columns, ascending by slot.
#[derive(Debug, Clone)]
struct PostingList {
    /// The key these are the postings of.
    key: KeyHash,
    slots: Vec<u32>,
    /// `values[i]` is the value slot `slots[i]`'s sketch stores for this key.
    values: Vec<f64>,
}

impl PostingList {
    fn with_capacity(key: KeyHash, n: usize) -> Self {
        Self {
            key,
            slots: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }
}

/// Every key's posting list, and `h(k)` → the position of that key's
/// list. A lookup yields a position, so a retrieval finds each query
/// key's list once and keeps the position for its second walk
/// ([`JoinedHits`]).
#[derive(Debug, Default, Clone)]
struct Postings {
    at: HashMap<KeyHash, u32, BuildHasherDefault<KeyHashHasher>>,
    lists: Vec<PostingList>,
}

impl Postings {
    /// The position of `key`'s list, if it has postings.
    fn find(&self, key: KeyHash) -> Option<u32> {
        self.at.get(&key).copied()
    }

    /// The list at a position [`Self::find`] returned.
    fn list(&self, at: u32) -> &PostingList {
        &self.lists[at as usize]
    }

    /// `key`'s list, created empty if it has none.
    fn list_mut(&mut self, key: KeyHash) -> &mut PostingList {
        let Self { at, lists } = self;
        let at = *at.entry(key).or_insert_with(|| {
            lists.push(PostingList::with_capacity(key, 0));
            u32::try_from(lists.len() - 1).expect("fewer than 2^32 keys")
        });
        &mut lists[at as usize]
    }

    /// Take `slot` out of `key`'s list; a list left empty is dropped, and
    /// the last list moves into its position.
    fn unthread(&mut self, key: KeyHash, slot: u32) {
        let Some(at) = self.find(key) else {
            return;
        };
        let list = &mut self.lists[at as usize];
        if let Ok(i) = list.slots.binary_search(&slot) {
            list.slots.remove(i);
            list.values.remove(i);
        }
        if list.slots.is_empty() {
            self.at.remove(&key);
            self.lists.swap_remove(at as usize);
            if let Some(moved) = self.lists.get(at as usize) {
                self.at.insert(moved.key, at);
            }
        }
    }
}

/// The postings of `sketches`, numbered from slot `first`: a first pass
/// looks every key up once and notes each entry's list position, so
/// every list is allocated once, at its final length, and the second
/// pass fills it in slot order without hashing again.
fn invert(sketches: &[CorrelationSketch], first: usize) -> Postings {
    let mut at: HashMap<KeyHash, u32, BuildHasherDefault<KeyHashHasher>> = HashMap::default();
    let mut keys = Vec::new();
    let positions: Vec<u32> = sketches
        .iter()
        .flat_map(CorrelationSketch::entries)
        .map(|e| {
            *at.entry(e.key).or_insert_with(|| {
                keys.push(e.key);
                u32::try_from(keys.len() - 1).expect("fewer than 2^32 keys")
            })
        })
        .collect();
    let mut lens = vec![0usize; keys.len()];
    for &i in &positions {
        lens[i as usize] += 1;
    }
    let mut lists: Vec<PostingList> = keys
        .into_iter()
        .zip(lens)
        .map(|(key, n)| PostingList::with_capacity(key, n))
        .collect();
    let mut positions = positions.into_iter();
    for (slot, s) in (first..).zip(sketches) {
        let slot = u32::try_from(slot).expect("fewer than 2^32 sketches");
        for e in s.entries() {
            let i = positions.next().expect("one position per entry");
            let list = &mut lists[i as usize];
            list.slots.push(slot);
            list.values.push(e.value);
        }
    }
    Postings { at, lists }
}

/// Append `tail`'s lists, whose slots all follow `postings`', to
/// `postings` key by key: slots stay ascending and every list is grown
/// once, to exactly its new length.
fn append_postings(postings: &mut Postings, tail: Postings) {
    for mut more in tail.lists {
        match postings.at.entry(more.key) {
            Entry::Occupied(at) => {
                let list = &mut postings.lists[*at.get() as usize];
                list.slots.reserve_exact(more.slots.len());
                list.slots.append(&mut more.slots);
                list.values.reserve_exact(more.values.len());
                list.values.append(&mut more.values);
            }
            Entry::Vacant(at) => {
                at.insert(u32::try_from(postings.lists.len()).expect("fewer than 2^32 keys"));
                postings.lists.push(more);
            }
        }
    }
}

/// A retrieval's output and its scratch, reused across queries by one
/// worker: the top-N hits of [`SketchIndex::retrieve_joined`] and, for
/// each, the join sample with the query as two contiguous columns of one
/// shared arena. Every field is overwritten by the next retrieval, so a
/// reused value answers exactly as a fresh one.
#[derive(Debug, Default)]
pub struct JoinedHits {
    hits: Vec<(DocId, usize)>,
    /// Hit `i`'s rows are `starts[i]..starts[i + 1]` of `x` and `y`.
    starts: Vec<usize>,
    /// The arena: every hit's rows back to back, then one spare row.
    x: Vec<f64>,
    y: Vec<f64>,
    /// Per-slot overlap counters of the count walk.
    counts: Vec<u32>,
    /// The count walk's finds, for the gather walk: the query's value
    /// and the posting-list position of every query key with postings,
    /// in the query's sketch order.
    found: Vec<(f64, u32)>,
    /// Per-slot [`Cursor`]s of the gather walk.
    cursors: Vec<Cursor>,
}

/// Where the gather walk writes a slot's next posting: an arena row, and
/// in the low bit whether the slot was selected. A selected slot's row
/// advances with every write; an unselected slot's stays on the arena's
/// spare row, where such writes land on top of each other and are never
/// read. That makes the walk's inner loop branch-free — whether a posting
/// belongs to a winner is a coin the predictor loses a third of the time
/// (on the ledger's lake the gather walk took ≈ 225 µs per query with an
/// `if selected`, ≈ 120 µs this way).
#[derive(Debug, Clone, Copy)]
struct Cursor(usize);

impl Cursor {
    fn new(row: usize, selected: bool) -> Self {
        Self(row << 1 | usize::from(selected))
    }

    fn row(self) -> usize {
        self.0 >> 1
    }

    fn advanced(self) -> Self {
        Self(self.0 + ((self.0 & 1) << 1))
    }
}

impl JoinedHits {
    /// The retrieved `(doc, overlap)` pairs, exactly
    /// [`SketchIndex::overlap_candidates`]' answer.
    #[must_use]
    pub fn hits(&self) -> &[(DocId, usize)] {
        &self.hits
    }

    /// Hit `i`'s join sample `(x_query[], y_candidate[])`, ascending by
    /// `(g(k), h(k))` — bit for bit the `x`/`y` of
    /// `join_sketches(query, index.get(doc))`, one row per shared key.
    ///
    /// # Panics
    ///
    /// When `i` is not below `hits().len()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> (&[f64], &[f64]) {
        let rows = self.starts[i]..self.starts[i + 1];
        (&self.x[rows.clone()], &self.y[rows])
    }
}

/// In-memory inverted index: `h(k) → [(sketch containing k, its x_k)]`.
///
/// Insertion is `O(sketch size)`; removal is `O(sketch size · posting
/// length)`; retrieval of overlap candidates is `O(Σ posting-list
/// lengths)` over the query sketch's keys — the same set-overlap-search
/// shape as the Lucene index the paper used — and emits the winners'
/// join samples on the way ([`Self::retrieve_joined`]).
///
/// ```
/// use correlation_sketches::{SketchBuilder, SketchConfig};
/// use sketch_index::SketchIndex;
/// use sketch_table::ColumnPair;
///
/// let builder = SketchBuilder::new(SketchConfig::with_size(64));
/// let pair = |t: &str| ColumnPair::new(
///     t, "k", "v",
///     (0..100).map(|i| format!("key-{i}")).collect(),
///     (0..100).map(f64::from).collect(),
/// );
/// let mut index = SketchIndex::new();
/// index.insert(builder.build(&pair("a"))).unwrap();
/// index.insert(builder.build(&pair("b"))).unwrap();
///
/// let query = builder.build(&pair("q"));
/// let hits = index.overlap_candidates(&query, 10);
/// assert_eq!(hits.len(), 2); // both corpus sketches share all keys
///
/// index.remove("a/k/v");
/// assert_eq!(index.len(), 1);
/// assert_eq!(index.get(0).unwrap().id(), "b/k/v"); // doc ids shifted
/// ```
#[derive(Debug, Default, Clone)]
pub struct SketchIndex {
    hasher: Option<TupleHasher>,
    /// Append-only insertion log; removed slots are `None`.
    slots: Vec<Option<CorrelationSketch>>,
    /// Live slots in ascending (= insertion) order; a [`DocId`] is a
    /// position in this vector.
    live: Vec<u32>,
    /// Live sketch id → slot. On duplicate ids the latest insert wins
    /// (ids are unique in any store-backed corpus; see [`Self::insert`]).
    by_id: HashMap<String, u32>,
    /// Posting lists of `(slot, value)`, incrementally maintained:
    /// removal unthreads the slot from every list its sketch appears in.
    postings: Postings,
    /// Store generation this index has applied (see
    /// [`Self::refresh_from_store`]). `0` for indices not built from a
    /// store.
    generation: u64,
}

impl SketchIndex {
    /// Empty index; the hasher configuration is pinned by the first
    /// inserted sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live sketches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live sketches remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of distinct hashed keys with non-empty posting lists.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.postings.lists.len()
    }

    /// The store generation this index has applied — advanced by
    /// [`Self::from_store`] and [`Self::refresh_from_store`], `0` for
    /// indices built in memory.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Look up a live indexed sketch by doc id (`None` past the end).
    #[must_use]
    pub fn get(&self, doc: DocId) -> Option<&CorrelationSketch> {
        let &slot = self.live.get(doc as usize)?;
        self.slots[slot as usize].as_ref()
    }

    /// Insert a sketch, returning its doc id (always `len() - 1`: new
    /// sketches enter at the end of the live order).
    ///
    /// Sketch ids are not required to be unique here (a JSON corpus may
    /// legitimately repeat column ids), but [`Self::remove`] and
    /// [`Self::apply_delta`] resolve ids to the *latest* insert; corpora
    /// read from a `sketch-store` directory are always id-unique.
    ///
    /// # Errors
    ///
    /// [`SketchError::HasherMismatch`] when the sketch was built with a
    /// different hasher configuration than the index's existing content.
    pub fn insert(&mut self, sketch: CorrelationSketch) -> Result<DocId, SketchError> {
        match self.hasher {
            Some(h) if h != sketch.hasher() => return Err(SketchError::HasherMismatch),
            None => self.hasher = Some(sketch.hasher()),
            _ => {}
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 inserts");
        for e in sketch.entries() {
            let list = self.postings.list_mut(e.key);
            list.slots.push(slot);
            list.values.push(e.value);
        }
        self.by_id.insert(sketch.id().to_string(), slot);
        self.live.push(slot);
        self.slots.push(Some(sketch));
        Ok((self.live.len() - 1) as DocId)
    }

    /// Remove the live sketch with this id, incrementally unthreading it
    /// from every posting list it appears in. Doc ids of later sketches
    /// shift down by one — the index stays bit-equivalent to a rebuild
    /// over the survivors. Returns `false` for ids that are not live.
    pub fn remove(&mut self, id: &str) -> bool {
        let Some(slot) = self.by_id.remove(id) else {
            return false;
        };
        let sketch = self.slots[slot as usize]
            .take()
            .expect("by_id only maps live slots");
        for e in sketch.entries() {
            self.postings.unthread(e.key, slot);
        }
        let doc = self.live.partition_point(|&s| s < slot);
        debug_assert_eq!(self.live[doc], slot);
        self.live.remove(doc);
        true
    }

    /// Apply one run of corpus delta records (appends and tombstones) in
    /// log order — the in-memory half of the store's
    /// [`sketch_store::append_corpus`] / [`sketch_store::remove_from_corpus`]
    /// write paths.
    ///
    /// # Errors
    ///
    /// [`SketchError::DuplicateId`] when an appended id is already live,
    /// [`SketchError::TombstoneForUnknownId`] when a tombstone names an
    /// id that is not, [`SketchError::HasherMismatch`] on an incompatible
    /// append — the same validation the store's read path applies, so a
    /// delta the store accepts always applies cleanly. On error the index
    /// may have applied a prefix of `records`; rebuild it from the store.
    pub fn apply_delta(&mut self, records: &[DeltaRecord]) -> Result<(), SketchError> {
        for record in records {
            match record {
                DeltaRecord::Sketch(s) => {
                    if self.by_id.contains_key(s.id()) {
                        return Err(SketchError::DuplicateId(s.id().to_string()));
                    }
                    self.insert(s.clone())?;
                }
                DeltaRecord::Tombstone(id) => {
                    if !self.remove(id) {
                        return Err(SketchError::TombstoneForUnknownId(id.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Build an index from a sequence of sketches; doc ids follow the
    /// iteration order. The result equals inserting the sketches one by
    /// one, but every posting list is allocated once, at its final length.
    ///
    /// # Errors
    ///
    /// [`SketchError::HasherMismatch`] when the sketches disagree on
    /// hasher configuration.
    pub fn from_sketches(
        sketches: impl IntoIterator<Item = CorrelationSketch>,
    ) -> Result<Self, SketchError> {
        Self::bulk(sketches.into_iter().collect(), 1)
    }

    /// Build the inverted index directly from a binary corpus store
    /// (`sketch-store` shards + manifest): shards are loaded and delta
    /// shards replayed, then the live sketches are inverted, each step
    /// with up to `threads` workers (`0` means 1). Doc ids follow the
    /// store's live order, so an index built this way is interchangeable
    /// with one maintained incrementally through the same log of inserts
    /// and removes, whatever `threads` is.
    ///
    /// # Errors
    ///
    /// [`sketch_store::StoreError`] on I/O failure or any typed
    /// corruption (bad magic/version, truncation, checksum mismatch,
    /// duplicate ids, stale generations, hasher mismatch).
    pub fn from_store(
        dir: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> Result<Self, sketch_store::StoreError> {
        let (manifest, sketches) = sketch_store::read_corpus_with_manifest(dir.as_ref(), threads)?;
        let mut index = Self::bulk(sketches, threads).map_err(sketch_store::StoreError::from)?;
        index.generation = manifest.generation;
        Ok(index)
    }

    /// The bulk constructor behind [`Self::from_sketches`] and
    /// [`Self::from_store`]: the index `insert` would build from
    /// `sketches` in order. Contiguous slot ranges are inverted on up to
    /// `threads` workers; the parts' lists are then concatenated per key
    /// in range order, so slots stay ascending.
    fn bulk(sketches: Vec<CorrelationSketch>, threads: usize) -> Result<Self, SketchError> {
        let hasher = sketches.first().map(CorrelationSketch::hasher);
        if sketches.iter().any(|s| Some(s.hasher()) != hasher) {
            return Err(SketchError::HasherMismatch);
        }
        let len = u32::try_from(sketches.len()).expect("fewer than 2^32 sketches");
        let range_len = sketches.len().div_ceil(threads.max(1)).max(1);
        let mut ranges = sketches.chunks(range_len).zip((0..).step_by(range_len));
        let head = ranges.next();
        let postings = std::thread::scope(|scope| {
            let workers: Vec<_> = ranges
                .map(|(range, first)| scope.spawn(move || invert(range, first)))
                .collect();
            let mut postings =
                head.map_or_else(Postings::default, |(range, first)| invert(range, first));
            for worker in workers {
                let part = worker.join().expect("inversion workers do not panic");
                append_postings(&mut postings, part);
            }
            postings
        });
        Ok(Self {
            hasher,
            by_id: sketches
                .iter()
                .zip(0..len)
                .map(|(s, slot)| (s.id().to_string(), slot))
                .collect(),
            live: (0..len).collect(),
            slots: sketches.into_iter().map(Some).collect(),
            postings,
            generation: 0,
        })
    }

    /// Catch up with a store this index was built from, applying only the
    /// delta generations newer than [`Self::generation`] — no base shard
    /// is re-read. Returns the number of delta records applied (`0` when
    /// already current).
    ///
    /// # Errors
    ///
    /// [`SketchError::StaleGeneration`] (wrapped in
    /// [`sketch_store::StoreError::Sketch`]) when the store was compacted
    /// past this index's generation — the deltas it would need are gone,
    /// so it must be rebuilt with [`Self::from_store`]; otherwise the
    /// store's usual typed I/O and corruption errors. On error the index
    /// is unchanged unless a delta shard itself was inconsistent with the
    /// index (which [`Self::apply_delta`] reports typed).
    pub fn refresh_from_store(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> Result<usize, sketch_store::StoreError> {
        let (manifest, records) =
            sketch_store::read_deltas_since(dir.as_ref(), self.generation, threads)?;
        self.apply_delta(&records)
            .map_err(sketch_store::StoreError::from)?;
        self.generation = manifest.generation;
        Ok(records.len())
    }

    /// Reclaim the memory of removed sketches by renumbering slots
    /// densely — the in-memory sibling of `sketch_store::compact_corpus`.
    ///
    /// Slots are append-only, so under sustained remove/insert churn the
    /// slot space (and the per-query overlap counter sized to it) grows
    /// with the *historical* insert count rather than the live size;
    /// long-lived indices should call this periodically. Queries are
    /// unaffected: the live order, doc ids, and every report are
    /// bit-identical before and after (the equivalence contract in the
    /// module docs), and [`Self::generation`] is preserved.
    pub fn compact(&mut self) {
        let generation = self.generation;
        let live: Vec<CorrelationSketch> = self
            .live
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .take()
                    .expect("live only lists occupied slots")
            })
            .collect();
        *self = Self::from_sketches(live).expect("live sketches share one hasher");
        self.generation = generation;
    }

    /// Retrieve the `top_n` indexed sketches with the largest key overlap
    /// with `query`, as `(doc, overlap)` pairs sorted by descending
    /// overlap. Ties — including ties exactly at the `top_n` truncation
    /// boundary — break by ascending *sketch id*, which is stable across
    /// insertion orders, so the retrieved set never depends on the order
    /// the corpus was built in or on selection-heap internals (doc id is
    /// the final tie-break, reachable only through duplicate ids in a
    /// JSON corpus). Documents with zero overlap are never returned.
    ///
    /// This is the count-only projection of [`Self::retrieve_joined`]:
    /// the same count walk and selection, without the gather.
    #[must_use]
    pub fn overlap_candidates(
        &self,
        query: &CorrelationSketch,
        top_n: usize,
    ) -> Vec<(DocId, usize)> {
        self.count_and_select(query, top_n, &mut Vec::new(), &mut Vec::new())
    }

    /// Stage 1 of a query, emitting the join: retrieve the hits of
    /// [`Self::overlap_candidates`] into `out` **together with each hit's
    /// join sample** ([`JoinedHits::sample`]).
    ///
    /// Two walks over the posting lists of the query's keys, in the
    /// query's sketch order. The *count walk* looks each query key up
    /// once, keeps the position of every list it finds, and adds one per
    /// posting into a flat per-slot counter (slots are dense: no hashing,
    /// and removed sketches are already absent from every list, so no
    /// liveness filter); a bounded heap picks the winners. Their counts are
    /// their sample sizes, so each gets a `[start, end)` range of the
    /// arena up front; the *gather walk* then revisits the lists the count
    /// walk found and writes `(x_query, value)` at the cursor of every
    /// posting, which advances through the range of a
    /// selected slot and parks every other slot on a spare row. A sketch's
    /// keys are unique and strictly ascending by `(g(k), h(k))` (the
    /// builder and every decoder enforce it), so a slot meets each shared
    /// key exactly once, in the order a merge walk of the two sketches
    /// would — the rows are those of `join_sketches`, bit for bit.
    ///
    /// A query built under a different hasher than the index shares no
    /// key space with it (its join with every doc is a
    /// [`SketchError::HasherMismatch`]), so it retrieves nothing here.
    pub fn retrieve_joined(&self, query: &CorrelationSketch, top_n: usize, out: &mut JoinedHits) {
        out.found.clear();
        out.hits = if self.hasher == Some(query.hasher()) {
            self.count_and_select(query, top_n, &mut out.counts, &mut out.found)
        } else {
            Vec::new()
        };
        out.starts.clear();
        let mut total = 0usize;
        for &(_, overlap) in &out.hits {
            out.starts.push(total);
            total += overlap;
        }
        out.starts.push(total);
        if total == 0 {
            return;
        }
        // Rows `..total` are each written exactly once by the gather and
        // row `total` is the spare, so whatever an earlier retrieval left
        // in the arena need not be cleared.
        out.x.resize(total + 1, 0.0);
        out.y.resize(total + 1, 0.0);
        out.cursors.clear();
        out.cursors
            .resize(self.slots.len(), Cursor::new(total, false));
        for (&(doc, _), &start) in out.hits.iter().zip(&out.starts) {
            out.cursors[self.live[doc as usize] as usize] = Cursor::new(start, true);
        }
        let (xs, ys, cursors) = (&mut out.x[..], &mut out.y[..], &mut out.cursors[..]);
        for &(x, at) in &out.found {
            let list = self.postings.list(at);
            for (&slot, &y) in list.slots.iter().zip(&list.values) {
                let cursor = &mut cursors[slot as usize];
                xs[cursor.row()] = x;
                ys[cursor.row()] = y;
                *cursor = cursor.advanced();
            }
        }
    }

    /// The count walk: look up the posting list of every query key, in
    /// the query's sketch order, recording `(query value, list position)`
    /// of each found in `found` and every slot's overlap with `query` in
    /// `counts` (both cleared here); then select the `top_n` live docs
    /// under the retrieval order.
    fn count_and_select(
        &self,
        query: &CorrelationSketch,
        top_n: usize,
        counts: &mut Vec<u32>,
        found: &mut Vec<(f64, u32)>,
    ) -> Vec<(DocId, usize)> {
        found.clear();
        if top_n == 0 || self.live.is_empty() {
            return Vec::new();
        }
        counts.clear();
        counts.resize(self.slots.len(), 0);
        for e in query.entries() {
            if let Some(at) = self.postings.find(e.key) {
                found.push((e.value, at));
                for &slot in &self.postings.list(at).slots {
                    counts[slot as usize] += 1;
                }
            }
        }
        let hits = self
            .live
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| counts[slot as usize] > 0)
            .map(|(doc, &slot)| (doc as DocId, counts[slot as usize] as usize));
        crate::select::top_k_by(hits, top_n, |a, b| {
            b.1.cmp(&a.1)
                .then_with(|| self.id_of(a.0).cmp(self.id_of(b.0)))
                .then(a.0.cmp(&b.0))
        })
    }

    /// The sketch id of a doc — retrieval's and ranking's tie-break. Live
    /// docs always resolve (the empty-string fallback keeps comparators
    /// total).
    pub(crate) fn id_of(&self, doc: DocId) -> &str {
        self.get(doc).map_or("", CorrelationSketch::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn pair(table: &str, range: std::ops::Range<usize>) -> ColumnPair {
        ColumnPair::new(
            table,
            "k",
            "v",
            range.clone().map(|i| format!("key-{i}")).collect(),
            range.map(|i| i as f64).collect(),
        )
    }

    fn builder() -> SketchBuilder {
        SketchBuilder::new(SketchConfig::with_size(128))
    }

    #[test]
    fn insert_and_get() {
        let mut idx = SketchIndex::new();
        let s = builder().build(&pair("a", 0..100));
        let doc = idx.insert(s.clone()).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(doc).map(CorrelationSketch::id), Some("a/k/v"));
        assert!(idx.get(99).is_none());
        assert!(idx.distinct_keys() > 0);
        assert_eq!(idx.generation(), 0);
    }

    /// Everything an index holds, each posting list in its stored order
    /// (the lists themselves by key: their positions are unobservable).
    fn assert_same_index(got: &SketchIndex, want: &SketchIndex, case: &str) {
        fn postings(idx: &SketchIndex) -> Vec<(KeyHash, Vec<u32>, Vec<u64>)> {
            let Postings { at, lists } = &idx.postings;
            assert_eq!(at.len(), lists.len());
            for (i, l) in lists.iter().enumerate() {
                assert_eq!(at[&l.key] as usize, i, "a key maps to its list");
                assert!(!l.slots.is_empty(), "no list is left empty");
            }
            let mut lists: Vec<_> = lists
                .iter()
                .map(|l| {
                    let values = l.values.iter().map(|v| v.to_bits()).collect();
                    (l.key, l.slots.clone(), values)
                })
                .collect();
            lists.sort_unstable_by_key(|l| l.0);
            lists
        }
        assert_eq!(got.hasher, want.hasher, "{case}: hasher");
        assert_eq!(got.slots, want.slots, "{case}: slots");
        assert_eq!(got.live, want.live, "{case}: live");
        assert_eq!(got.by_id, want.by_id, "{case}: by_id");
        assert_eq!(postings(got), postings(want), "{case}: postings");
        assert_eq!(got.generation, want.generation, "{case}: generation");
    }

    fn inserted(sketches: &[CorrelationSketch]) -> SketchIndex {
        let mut idx = SketchIndex::new();
        for s in sketches {
            idx.insert(s.clone()).unwrap();
        }
        idx
    }

    fn overlapping_corpus(tables: usize) -> Vec<CorrelationSketch> {
        (0..tables)
            .map(|t| builder().build(&pair(&format!("t{t}"), (t * 17)..(t * 17 + 90))))
            .collect()
    }

    /// The bulk constructors build exactly the index `insert` builds one
    /// sketch at a time, with every posting list sized once.
    #[test]
    fn bulk_construction_equals_one_insert_at_a_time() {
        let mut corpus = overlapping_corpus(12);
        // A repeated id: both are indexed, the later one owns the id.
        corpus.push(builder().build(&pair("t3", 500..560)));
        let want = inserted(&corpus);
        assert_eq!(want.by_id["t3/k/v"], 12);
        let from_sketches = SketchIndex::from_sketches(corpus.clone()).unwrap();
        assert_same_index(&from_sketches, &want, "from_sketches");
        for threads in [0, 1, 2, 7, 16] {
            let bulk = SketchIndex::bulk(corpus.clone(), threads).unwrap();
            assert_same_index(&bulk, &want, &format!("bulk threads={threads}"));
            for list in &bulk.postings.lists {
                assert_eq!(list.slots.capacity(), list.slots.len());
                assert_eq!(list.values.capacity(), list.values.len());
            }
        }
        for threads in [0, 1, 16] {
            assert_same_index(
                &SketchIndex::bulk(Vec::new(), threads).unwrap(),
                &SketchIndex::new(),
                &format!("empty threads={threads}"),
            );
        }
    }

    #[test]
    fn bulk_construction_rejects_a_mismatched_hasher_in_the_second_half() {
        use sketch_hashing::TupleHasher;
        let mut corpus = overlapping_corpus(8);
        let alien = SketchBuilder::new(SketchConfig::with_size(128).hasher(TupleHasher::new_64(9)))
            .build(&pair("alien", 0..50));
        corpus.insert(6, alien.clone());
        let mut idx = inserted(&corpus[..6]);
        assert_eq!(idx.insert(alien), Err(SketchError::HasherMismatch));
        assert_eq!(
            SketchIndex::from_sketches(corpus.clone()).unwrap_err(),
            SketchError::HasherMismatch
        );
        for threads in [0, 1, 2, 7, 16] {
            assert_eq!(
                SketchIndex::bulk(corpus.clone(), threads).unwrap_err(),
                SketchError::HasherMismatch,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn from_store_equals_one_insert_at_a_time_at_every_thread_count() {
        let dir = std::env::temp_dir().join(format!("cskb-inverted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = overlapping_corpus(11);
        let opts = sketch_store::PackOptions {
            shards: 3,
            threads: 1,
        };
        sketch_store::pack_corpus(&dir, &corpus[..9], &opts).unwrap();
        sketch_store::append_corpus(&dir, &corpus[9..], 1).unwrap();
        sketch_store::remove_from_corpus(&dir, &["t4/k/v".to_string()], 1).unwrap();
        let live: Vec<CorrelationSketch> =
            corpus.into_iter().filter(|s| s.id() != "t4/k/v").collect();
        let mut want = inserted(&live);
        want.generation = 2;
        for threads in [0, 1, 2, 7, 16] {
            let got = SketchIndex::from_store(&dir, threads).unwrap();
            assert_same_index(&got, &want, &format!("from_store threads={threads}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlap_candidates_ranked_by_true_overlap() {
        let mut idx = SketchIndex::new();
        let b = builder();
        // Three corpus sketches with decreasing overlap with 0..100.
        idx.insert(b.build(&pair("full", 0..100))).unwrap();
        idx.insert(b.build(&pair("half", 50..150))).unwrap();
        idx.insert(b.build(&pair("none", 1000..1100))).unwrap();

        let q = b.build(&pair("q", 0..100));
        let hits = idx.overlap_candidates(&q, 10);
        assert_eq!(hits.len(), 2, "zero-overlap docs must be excluded");
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn top_n_truncates() {
        let mut idx = SketchIndex::new();
        let b = builder();
        for t in 0..20 {
            idx.insert(b.build(&pair(&format!("t{t}"), 0..50))).unwrap();
        }
        let q = b.build(&pair("q", 0..50));
        assert_eq!(idx.overlap_candidates(&q, 5).len(), 5);
        assert_eq!(idx.overlap_candidates(&q, 0).len(), 0);
    }

    #[test]
    fn hasher_mismatch_rejected() {
        use sketch_hashing::TupleHasher;
        let mut idx = SketchIndex::new();
        idx.insert(builder().build(&pair("a", 0..10))).unwrap();
        let other = SketchBuilder::new(SketchConfig::with_size(128).hasher(TupleHasher::new_64(9)))
            .build(&pair("b", 0..10));
        assert_eq!(idx.insert(other), Err(SketchError::HasherMismatch));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = SketchIndex::new();
        let q = builder().build(&pair("q", 0..10));
        assert!(idx.overlap_candidates(&q, 10).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn removed_documents_disappear_and_doc_ids_stay_dense() {
        let mut idx = SketchIndex::new();
        let b = builder();
        idx.insert(b.build(&pair("a", 0..100))).unwrap();
        idx.insert(b.build(&pair("b", 0..100))).unwrap();
        assert_eq!(idx.len(), 2);

        assert!(idx.remove("a/k/v"));
        assert!(!idx.remove("a/k/v"), "double delete is a no-op");
        assert!(!idx.remove("zzz/k/v"), "unknown id rejected");
        assert_eq!(idx.len(), 1);
        // Doc ids shift down: the survivor is now doc 0, exactly as a
        // rebuild over the survivors would number it.
        assert_eq!(idx.get(0).map(CorrelationSketch::id), Some("b/k/v"));
        assert!(idx.get(1).is_none());

        let q = b.build(&pair("q", 0..100));
        let hits = idx.overlap_candidates(&q, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);

        // New inserts enter at the end of the live order.
        let d2 = idx.insert(b.build(&pair("c", 0..100))).unwrap();
        assert_eq!(d2, 1);
        assert_eq!(idx.get(d2).unwrap().id(), "c/k/v");
    }

    /// The equivalence contract: any interleaving of inserts and removes
    /// leaves the index identical — doc ids included — to a rebuild over
    /// the survivors in insertion order.
    #[test]
    fn mutated_index_equals_rebuild_over_survivors() {
        let b = builder();
        let mut idx = SketchIndex::new();
        let mut survivors: Vec<CorrelationSketch> = Vec::new();
        for t in 0..30 {
            let s = b.build(&pair(&format!("t{t}"), (t * 2)..(t * 2 + 60)));
            idx.insert(s.clone()).unwrap();
            survivors.push(s);
        }
        for t in [0usize, 3, 4, 11, 29] {
            assert!(idx.remove(&format!("t{t}/k/v")));
            survivors.retain(|s| s.id() != format!("t{t}/k/v"));
        }
        // Interleave: one more insert after the removes.
        let late = b.build(&pair("late", 0..60));
        idx.insert(late.clone()).unwrap();
        survivors.push(late);

        let rebuilt = SketchIndex::from_sketches(survivors).unwrap();
        assert_eq!(idx.len(), rebuilt.len());
        assert_eq!(idx.distinct_keys(), rebuilt.distinct_keys());
        for doc in 0..idx.len() as DocId {
            assert_eq!(idx.get(doc).unwrap(), rebuilt.get(doc).unwrap(), "{doc}");
        }
        let q = b.build(&pair("q", 0..60));
        assert_eq!(
            idx.overlap_candidates(&q, 8),
            rebuilt.overlap_candidates(&q, 8)
        );
    }

    #[test]
    fn apply_delta_validates_like_the_store() {
        let b = builder();
        let mut idx = SketchIndex::new();
        idx.insert(b.build(&pair("a", 0..50))).unwrap();

        // A valid delta: append then tombstone.
        idx.apply_delta(&[
            DeltaRecord::Sketch(b.build(&pair("c", 0..50))),
            DeltaRecord::Tombstone("a/k/v".into()),
        ])
        .unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(0).unwrap().id(), "c/k/v");

        // Appending a live id is a typed duplicate.
        let err = idx
            .apply_delta(&[DeltaRecord::Sketch(b.build(&pair("c", 0..50)))])
            .unwrap_err();
        assert!(matches!(err, SketchError::DuplicateId(id) if id == "c/k/v"));

        // Tombstoning a non-live id is typed too.
        let err = idx
            .apply_delta(&[DeltaRecord::Tombstone("a/k/v".into())])
            .unwrap_err();
        assert!(matches!(err, SketchError::TombstoneForUnknownId(id) if id == "a/k/v"));

        // Tombstone-then-re-append revives an id at the end.
        idx.apply_delta(&[
            DeltaRecord::Tombstone("c/k/v".into()),
            DeltaRecord::Sketch(b.build(&pair("c", 10..60))),
        ])
        .unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(0).unwrap().id(), "c/k/v");
    }

    #[test]
    fn in_memory_compact_preserves_answers_and_doc_ids() {
        let b = builder();
        let mut idx = SketchIndex::new();
        // Churn: insert 20, remove half interleaved, insert 5 more.
        for t in 0..20 {
            idx.insert(b.build(&pair(&format!("t{t}"), (t * 3)..(t * 3 + 50))))
                .unwrap();
        }
        for t in [1usize, 2, 5, 8, 9, 13, 14, 15, 16, 19] {
            assert!(idx.remove(&format!("t{t}/k/v")));
        }
        for t in 20..25 {
            idx.insert(b.build(&pair(&format!("t{t}"), (t * 3)..(t * 3 + 50))))
                .unwrap();
        }
        let q = b.build(&pair("q", 0..80));
        let before_hits = idx.overlap_candidates(&q, 10);
        let before: Vec<(DocId, String)> = (0..idx.len() as DocId)
            .map(|d| (d, idx.get(d).unwrap().id().to_string()))
            .collect();

        idx.compact();
        assert_eq!(idx.len(), 15);
        let after: Vec<(DocId, String)> = (0..idx.len() as DocId)
            .map(|d| (d, idx.get(d).unwrap().id().to_string()))
            .collect();
        assert_eq!(before, after, "doc ids must survive compaction");
        assert_eq!(idx.overlap_candidates(&q, 10), before_hits);

        // Post-compact mutation keeps working and stays dense.
        let d = idx.insert(b.build(&pair("post", 0..50))).unwrap();
        assert_eq!(d, 15);
        assert!(idx.remove("post/k/v"));
    }

    #[test]
    fn removing_everything_empties_the_index() {
        let mut idx = SketchIndex::new();
        let b = builder();
        idx.insert(b.build(&pair("a", 0..10))).unwrap();
        idx.remove("a/k/v");
        assert!(idx.is_empty());
        assert_eq!(idx.distinct_keys(), 0, "posting lists fully unthreaded");
        let q = b.build(&pair("q", 0..10));
        assert!(idx.overlap_candidates(&q, 10).is_empty());
    }

    #[test]
    fn ties_break_by_sketch_id_not_insertion_order() {
        // Two sketches with identical key sets, inserted in *reverse* id
        // order: the tie must still resolve to the lexicographically
        // smaller id, not to whichever was inserted first.
        let mut idx = SketchIndex::new();
        let b = builder();
        idx.insert(b.build(&pair("t2", 0..60))).unwrap();
        idx.insert(b.build(&pair("t1", 0..60))).unwrap();
        let q = b.build(&pair("q", 0..60));
        let hits = idx.overlap_candidates(&q, 10);
        assert_eq!(hits[0].1, hits[1].1, "both must tie on overlap");
        assert_eq!(idx.get(hits[0].0).unwrap().id(), "t1/k/v");
        assert_eq!(idx.get(hits[1].0).unwrap().id(), "t2/k/v");
    }

    /// The truncation-boundary contract: when more candidates tie on
    /// overlap than `top_n` admits, the retrieved *set* is the same for
    /// every insertion order of the corpus.
    #[test]
    fn truncation_boundary_is_insertion_order_independent() {
        let b = builder();
        // Eight sketches with identical keys (all tie on overlap), ids
        // t0..t7; top_n = 3 cuts through the tie group.
        let names: Vec<String> = (0..8).map(|t| format!("t{t}")).collect();
        let q = b.build(&pair("q", 0..60));
        let mut expected: Option<Vec<(String, usize)>> = None;
        // Several deterministic permutations of the insertion order.
        for rot in 0..names.len() {
            let mut order = names.clone();
            order.rotate_left(rot);
            if rot % 2 == 1 {
                order.reverse();
            }
            let mut idx = SketchIndex::new();
            for name in &order {
                idx.insert(b.build(&pair(name, 0..60))).unwrap();
            }
            let hits: Vec<(String, usize)> = idx
                .overlap_candidates(&q, 3)
                .into_iter()
                .map(|(doc, ov)| (idx.get(doc).unwrap().id().to_string(), ov))
                .collect();
            assert_eq!(hits.len(), 3);
            match &expected {
                None => expected = Some(hits),
                Some(want) => assert_eq!(&hits, want, "insertion order {order:?}"),
            }
        }
        // And the winners are the lexicographically smallest ids.
        let ids: Vec<&str> = expected
            .as_ref()
            .unwrap()
            .iter()
            .map(|(id, _)| id.as_str())
            .collect();
        assert_eq!(ids, vec!["t0/k/v", "t1/k/v", "t2/k/v"]);
    }
}
