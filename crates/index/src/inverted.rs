//! The inverted index over sketch key hashes: an immutable base, an
//! overlay of later inserts, and removals that touch no posting.
//!
//! # Doc ids under mutation
//!
//! A [`DocId`] is the sketch's position in the **live corpus order** —
//! surviving inserts in insertion order. Removing a sketch therefore
//! shifts the doc ids of everything inserted after it down by one, which
//! is exactly how a from-scratch rebuild over the surviving sketches
//! would number them. This is the index's central equivalence contract:
//! after *any* interleaving of inserts and removes, the index answers
//! bit-identically — doc ids, tie-breaks, join samples, query reports —
//! to [`SketchIndex::from_sketches`] over the surviving sketches in
//! insertion order (and to [`SketchIndex::from_store`] over a store that
//! replayed the same log). Because ids shift, removal is keyed by the
//! stable sketch id string, not by doc id.
//!
//! Internally the index never renumbers anything: sketches live in
//! append-only *slots*, postings hold slot numbers, and a sorted
//! slot→doc translation (`live`) is maintained at the edges. The
//! postings are in two parts:
//!
//! * the **base**, built once by the bulk constructors and never changed
//!   after: every posting of the slots it was built over, one key's
//!   after another in two flat columns (compressed sparse rows), with a
//!   key → `start..end` map. It sits behind an [`Arc`], so a clone of the
//!   index — the server's refresher takes one per delta — shares it, and
//!   shares every sketch too;
//! * the **overlay**: a posting list per key, holding only the slots
//!   inserted since the base was built. A query key probes the overlay
//!   only when it is not empty.
//!
//! Removal touches no posting. A removed slot leaves `live`, and the
//! live order is all retrieval selects from, so the postings it leaves
//! behind are counted and never read. They last until
//! [`SketchIndex::compact`] or the next [`SketchIndex::from_store`]
//! rebuilds the base over the live sketches.
//!
//! # Postings carry values
//!
//! A posting is `(slot, x_k)`: the sketch's slot **and the value it
//! stores for that key** — `h(k) → [(slot, x_k)]`, kept as two parallel
//! columns (`slots`, `values`). Retrieval already visits every (query
//! key, candidate) match; with the value in the posting the same visit
//! yields the join row `(x_query, y_candidate)`, so
//! [`SketchIndex::retrieve_joined`] hands the estimators each winner's
//! join sample without a merge walk per candidate. The price is memory:
//! 12 bytes per posting (`u32` slot + `f64` value). Counting reads only
//! the `slots` column. Every key's postings are ascending by slot: base
//! slots precede overlay slots, and both parts are appended in slot
//! order.
//!
//! # Bulk construction
//!
//! [`SketchIndex::from_sketches`], [`SketchIndex::from_store`] and
//! [`SketchIndex::compact`] write the base directly: a counting pass
//! over contiguous slot ranges on the loader threads notes each entry's
//! key, prefix sums place every key's range, and one fill — the same
//! threads, each writing its own slot range's share of every key — puts
//! each posting in place. Keys keep their first-seen order. The same
//! build ranks the base slots by sketch id, so retrieval breaks overlap
//! ties by comparing two integers instead of two id strings.
//!
//! # The postings maps skip SipHash
//!
//! A [`KeyHash`] is already the output of a seeded murmur3, so the maps
//! hash it with one multiply instead of SipHash. Hash flooding is not a
//! concern here: only operator-packed corpora are ever *inserted*
//! (`insert`, `apply_delta`, the store loaders); query keys from the
//! outside are only ever *looked up*, which cannot grow a bucket chain.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use correlation_sketches::{CorrelationSketch, DeltaRecord, SketchError};
use sketch_hashing::{KeyHash, TupleHasher};

/// Identifier of an indexed sketch: its position in the live corpus
/// order. Dense (`0..len`), shifts down on removal of an earlier sketch —
/// see the module docs for the equivalence contract this buys.
pub type DocId = u32;

/// Hasher of the postings maps (module docs: why not SipHash). The
/// multiply by an odd constant carries the key's low bits into the high
/// ones, which the table reads its control bytes from.
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

type KeyMap<V> = HashMap<KeyHash, V, BuildHasherDefault<KeyHashHasher>>;

/// The immutable postings of the slots `0..ranks.len()`: every key's
/// postings contiguous in two parallel columns, ascending by slot.
#[derive(Debug, Default)]
struct Base {
    /// `h(k)` → the range `start..end` of `slots` and `values` holding
    /// that key's postings.
    at: KeyMap<(u32, u32)>,
    slots: Vec<u32>,
    /// `values[i]` is the value slot `slots[i]`'s sketch stores for the
    /// key whose range holds `i`.
    values: Vec<f64>,
    /// `ranks[slot]` is the slot's position in ascending sketch-id order
    /// over the base slots; equal ids share the rank of the first.
    ranks: Vec<u32>,
}

impl Base {
    /// `key`'s range of the columns, if it has postings here.
    fn find(&self, key: KeyHash) -> Option<(u32, u32)> {
        self.at.get(&key).copied()
    }

    /// The slots of a range [`Self::find`] returned.
    fn slots(&self, (start, end): (u32, u32)) -> &[u32] {
        &self.slots[start as usize..end as usize]
    }
}

/// One key's overlay postings as two parallel columns, ascending by slot.
#[derive(Debug, Clone, Default)]
struct PostingList {
    slots: Vec<u32>,
    /// `values[i]` is the value slot `slots[i]`'s sketch stores for this key.
    values: Vec<f64>,
}

/// The overlay: a posting list per key, and `h(k)` → the position of
/// that key's list. A lookup yields a position, so a retrieval finds
/// each query key's list once and keeps the position for its second
/// walk ([`JoinedHits`]).
#[derive(Debug, Default, Clone)]
struct Postings {
    at: KeyMap<u32>,
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
            lists.push(PostingList::default());
            u32::try_from(lists.len() - 1).expect("fewer than 2^32 keys")
        });
        &mut lists[at as usize]
    }
}

/// Run `f` on every item, the first on this thread and each other on a
/// thread of its own; the results come back in item order.
fn on_threads<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let head = items.next();
        let workers: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        head.map(f)
            .into_iter()
            .chain(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("index build workers do not panic")),
            )
            .collect()
    })
}

/// The counting pass over one contiguous slot range: its keys in
/// first-seen order, how many postings each has in the range, and the
/// key position of every entry, so the fill hashes nothing.
struct Counted {
    keys: Vec<KeyHash>,
    lens: Vec<u32>,
    positions: Vec<u32>,
}

fn count(sketches: &[Arc<CorrelationSketch>]) -> Counted {
    let mut at: KeyMap<u32> = HashMap::default();
    let (mut keys, mut lens) = (Vec::new(), Vec::new());
    let positions = sketches
        .iter()
        .flat_map(|s| s.entries())
        .map(|e| {
            let i = *at.entry(e.key).or_insert_with(|| {
                keys.push(e.key);
                lens.push(0);
                u32::try_from(keys.len() - 1).expect("fewer than 2^32 keys")
            });
            lens[i as usize] += 1;
            i
        })
        .collect();
    Counted {
        keys,
        lens,
        positions,
    }
}

/// One range's share of the base columns: for each of its keys (by
/// position in its [`Counted::keys`]), the slice of that key's range its
/// postings fill, in slot order.
type Shares<'a> = Vec<(&'a mut [u32], &'a mut [f64])>;

/// The base over `sketches`, numbered from slot 0, built on up to
/// `threads` workers (`0` means 1). The columns hold exactly what
/// appending every sketch's entries to per-key lists in slot order
/// would, with the keys in first-seen order.
fn build_base(sketches: &[Arc<CorrelationSketch>], threads: usize) -> Base {
    let range_len = sketches.len().div_ceil(threads.max(1)).max(1);
    let ranges: Vec<&[Arc<CorrelationSketch>]> = sketches.chunks(range_len).collect();
    let parts = on_threads(ranges.clone(), count);

    // Number the keys across ranges in first-seen order; `at` maps each
    // to `(its number, 0)` until the ranges are placed.
    let mut at: KeyMap<(u32, u32)> = HashMap::default();
    let (mut keys, mut lens) = (Vec::new(), Vec::<u32>::new());
    let numbers: Vec<Vec<u32>> = parts
        .iter()
        .map(|part| {
            part.keys
                .iter()
                .zip(&part.lens)
                .map(|(&key, &n)| {
                    let g = at.entry(key).or_insert_with(|| {
                        keys.push(key);
                        lens.push(0);
                        (
                            u32::try_from(keys.len() - 1).expect("fewer than 2^32 keys"),
                            0,
                        )
                    });
                    lens[g.0 as usize] += n;
                    g.0
                })
                .collect()
        })
        .collect();
    let mut start = 0u32;
    for (&key, &n) in keys.iter().zip(&lens) {
        let end = start.checked_add(n).expect("fewer than 2^32 postings");
        *at.get_mut(&key).expect("every key is numbered") = (start, end);
        start = end;
    }

    // Cut the columns into each range's share of each key's range: per
    // key, the ranges' shares follow each other in range order.
    let total = start as usize;
    let (mut slots, mut values) = (vec![0u32; total], vec![0f64; total]);
    let mut shares: Vec<Shares<'_>> = parts
        .iter()
        .map(|part| {
            std::iter::repeat_with(Default::default)
                .take(part.keys.len())
                .collect()
        })
        .collect();
    // `local[r][g]` is key `g`'s position among range `r`'s keys.
    let local: Vec<Vec<u32>> = numbers
        .iter()
        .map(|numbers| {
            let mut local = vec![u32::MAX; keys.len()];
            for (i, &g) in (0..).zip(numbers) {
                local[g as usize] = i;
            }
            local
        })
        .collect();
    let (mut rest_slots, mut rest_values) = (&mut slots[..], &mut values[..]);
    for g in 0..keys.len() {
        for (r, local) in local.iter().enumerate() {
            let i = local[g] as usize;
            let Some(&n) = parts[r].lens.get(i) else {
                continue;
            };
            let n = n as usize;
            let (s, more_slots) = std::mem::take(&mut rest_slots).split_at_mut(n);
            let (v, more_values) = std::mem::take(&mut rest_values).split_at_mut(n);
            shares[r][i] = (s, v);
            (rest_slots, rest_values) = (more_slots, more_values);
        }
    }

    let work: Vec<_> = ranges
        .iter()
        .zip((0..).step_by(range_len))
        .zip(parts.iter().zip(shares))
        .collect();
    on_threads(work, |((range, first), (part, mut shares))| {
        let mut positions = part.positions.iter();
        for (slot, s) in (first..).zip(range.iter()) {
            let slot = u32::try_from(slot).expect("fewer than 2^32 sketches");
            for e in s.entries() {
                let i = *positions.next().expect("one position per entry") as usize;
                let (s, v) = std::mem::take(&mut shares[i]);
                let ((s0, s), (v0, v)) = (
                    s.split_first_mut().expect("the count sized the share"),
                    v.split_first_mut().expect("the count sized the share"),
                );
                (*s0, *v0) = (slot, e.value);
                shares[i] = (s, v);
            }
        }
    });

    Base {
        at,
        slots,
        values,
        ranks: id_ranks(sketches),
    }
}

/// Each sketch's position in ascending id order; equal ids share the
/// position of the first.
fn id_ranks(sketches: &[Arc<CorrelationSketch>]) -> Vec<u32> {
    let mut order: Vec<u32> =
        (0..u32::try_from(sketches.len()).expect("fewer than 2^32 sketches")).collect();
    let id = |slot: u32| sketches[slot as usize].id();
    order.sort_unstable_by(|&a, &b| id(a).cmp(id(b)));
    let mut ranks = vec![0u32; sketches.len()];
    let mut rank = 0;
    for (i, &slot) in (0u32..).zip(&order) {
        if i > 0 && id(order[i as usize - 1]) != id(slot) {
            rank = i;
        }
        ranks[slot as usize] = rank;
    }
    ranks
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
    /// The lookups' finds in the base, for both walks: the query's value
    /// and the key's range of the base columns, in the query's sketch
    /// order.
    found: Vec<(f64, (u32, u32))>,
    /// The same for the overlay: the query's value and the position of
    /// the key's overlay list.
    found_overlay: Vec<(f64, u32)>,
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
/// Insertion is `O(sketch size)`; removal touches no posting and is
/// `O(sketch size)` lookups, each reading its key's postings up to the
/// first live one; retrieval of overlap candidates is `O(Σ posting-list
/// lengths)` over the query sketch's keys — the same set-overlap-search
/// shape as the Lucene index the paper used — and emits the winners'
/// join samples on the way ([`Self::retrieve_joined`]). A clone shares
/// the base postings and every sketch.
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
    slots: Vec<Option<Arc<CorrelationSketch>>>,
    /// Live slots in ascending (= insertion) order; a [`DocId`] is a
    /// position in this vector.
    live: Vec<u32>,
    /// Live sketch id → slot. On duplicate ids the latest insert wins
    /// (ids are unique in any store-backed corpus; see [`Self::insert`]).
    by_id: HashMap<String, u32>,
    /// Postings of the slots the bulk constructor was given.
    base: Arc<Base>,
    /// Postings of the slots inserted since.
    overlay: Postings,
    /// Number of distinct keys with a live posting.
    live_keys: usize,
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

    /// Number of distinct hashed keys some live sketch holds — exactly a
    /// rebuild's, however many dead postings a key has left behind.
    /// Kept as a count: [`Self::insert`] and [`Self::remove`] each check,
    /// per key of their sketch, whether the key had (has) a live posting.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.live_keys
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
        self.slots[slot as usize].as_deref()
    }

    /// Insert a sketch, returning its doc id (always `len() - 1`: new
    /// sketches enter at the end of the live order). Its postings go to
    /// the overlay.
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
            if !self.has_live_posting(e.key) {
                self.live_keys += 1;
            }
            let list = self.overlay.list_mut(e.key);
            list.slots.push(slot);
            list.values.push(e.value);
        }
        self.by_id.insert(sketch.id().to_string(), slot);
        self.live.push(slot);
        self.slots.push(Some(Arc::new(sketch)));
        Ok((self.live.len() - 1) as DocId)
    }

    /// Remove the live sketch with this id. Its postings stay where they
    /// are, dead: retrieval selects from the live sketches only (module
    /// docs). Doc ids of later sketches shift down by one — the index
    /// stays bit-equivalent to a rebuild over the survivors. Returns
    /// `false` for ids that are not live.
    pub fn remove(&mut self, id: &str) -> bool {
        let Some(slot) = self.by_id.remove(id) else {
            return false;
        };
        let sketch = self.slots[slot as usize]
            .take()
            .expect("by_id only maps live slots");
        let doc = self.live.partition_point(|&s| s < slot);
        debug_assert_eq!(self.live[doc], slot);
        self.live.remove(doc);
        for e in sketch.entries() {
            if !self.has_live_posting(e.key) {
                self.live_keys -= 1;
            }
        }
        true
    }

    /// Whether some live sketch holds `key`: its postings are read up to
    /// the first live one.
    fn has_live_posting(&self, key: KeyHash) -> bool {
        let live = |&slot: &u32| self.slots[slot as usize].is_some();
        self.base
            .find(key)
            .is_some_and(|range| self.base.slots(range).iter().any(live))
            || self
                .overlay
                .find(key)
                .is_some_and(|at| self.overlay.list(at).slots.iter().any(live))
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
    /// Appended sketches move into the index; none is copied.
    pub fn apply_delta(
        &mut self,
        records: impl IntoIterator<Item = DeltaRecord>,
    ) -> Result<(), SketchError> {
        for record in records {
            match record {
                DeltaRecord::Sketch(s) => {
                    if self.by_id.contains_key(s.id()) {
                        return Err(SketchError::DuplicateId(s.id().to_string()));
                    }
                    self.insert(s)?;
                }
                DeltaRecord::Tombstone(id) => {
                    if !self.remove(&id) {
                        return Err(SketchError::TombstoneForUnknownId(id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Build an index from a sequence of sketches; doc ids follow the
    /// iteration order. The result answers exactly as inserting the
    /// sketches one by one would, with every posting in the base.
    ///
    /// # Errors
    ///
    /// [`SketchError::HasherMismatch`] when the sketches disagree on
    /// hasher configuration.
    pub fn from_sketches(
        sketches: impl IntoIterator<Item = CorrelationSketch>,
    ) -> Result<Self, SketchError> {
        Self::bulk(sketches.into_iter().map(Arc::new).collect(), 1)
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
        let mut index = Self::bulk(sketches.into_iter().map(Arc::new).collect(), threads)
            .map_err(sketch_store::StoreError::from)?;
        index.generation = manifest.generation;
        Ok(index)
    }

    /// The bulk constructor behind [`Self::from_sketches`],
    /// [`Self::from_store`] and [`Self::compact`]: `sketches` in slots
    /// `0..`, all live, every posting in a base built on up to `threads`
    /// workers, and an empty overlay.
    fn bulk(sketches: Vec<Arc<CorrelationSketch>>, threads: usize) -> Result<Self, SketchError> {
        let hasher = sketches.first().map(|s| s.hasher());
        if sketches.iter().any(|s| Some(s.hasher()) != hasher) {
            return Err(SketchError::HasherMismatch);
        }
        let len = u32::try_from(sketches.len()).expect("fewer than 2^32 sketches");
        let base = build_base(&sketches, threads);
        Ok(Self {
            hasher,
            by_id: sketches
                .iter()
                .zip(0..len)
                .map(|(s, slot)| (s.id().to_string(), slot))
                .collect(),
            live: (0..len).collect(),
            slots: sketches.into_iter().map(Some).collect(),
            live_keys: base.at.len(),
            base: Arc::new(base),
            overlay: Postings::default(),
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
        let applied = records.len();
        self.apply_delta(records)
            .map_err(sketch_store::StoreError::from)?;
        self.generation = manifest.generation;
        Ok(applied)
    }

    /// Rebuild the base over the live sketches, in slots `0..len` — the
    /// in-memory sibling of `sketch_store::compact_corpus`. This is what
    /// drops the postings removed sketches left behind and folds the
    /// overlay into the base; no sketch is copied.
    ///
    /// Slots are append-only and removal leaves its postings in place,
    /// so under sustained remove/insert churn the slot space (and the
    /// per-query overlap counter sized to it) and the postings a query
    /// walks grow with the *historical* insert count rather than the
    /// live size; long-lived indices should call this periodically (or
    /// reload with [`Self::from_store`] after compacting the store).
    /// Queries are unaffected: the live order, doc ids, and every report
    /// are bit-identical before and after (the equivalence contract in
    /// the module docs), and [`Self::generation`] is preserved.
    pub fn compact(&mut self) {
        let generation = self.generation;
        let live: Vec<Arc<CorrelationSketch>> = self
            .live
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .take()
                    .expect("live only lists occupied slots")
            })
            .collect();
        *self = Self::bulk(live, 1).expect("live sketches share one hasher");
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
    /// the same lookups, count walk and selection, without the gather.
    #[must_use]
    pub fn overlap_candidates(
        &self,
        query: &CorrelationSketch,
        top_n: usize,
    ) -> Vec<(DocId, usize)> {
        let mut out = JoinedHits::default();
        self.count_and_select(query, top_n, &mut out);
        out.hits
    }

    /// Stage 1 of a query, emitting the join: retrieve the hits of
    /// [`Self::overlap_candidates`] into `out` **together with each hit's
    /// join sample** ([`JoinedHits::sample`]).
    ///
    /// Every query key is looked up first, in the query's sketch order:
    /// its range of the base columns, and its overlay list when the
    /// overlay holds any. The *count walk* then adds one per posting of
    /// those ranges and lists into a flat per-slot counter (slots are
    /// dense: no hashing); a bounded heap picks the winners among the
    /// live slots, so dead postings are counted and never selected. The
    /// winners' counts are their sample sizes, so each gets a
    /// `[start, end)` range of the arena up front; the *gather walk* then
    /// revisits the same ranges and lists and writes `(x_query, value)`
    /// at the cursor of every posting, which advances through the range
    /// of a selected slot and parks every other slot, dead ones included,
    /// on a spare row. A sketch's keys are unique and strictly ascending
    /// by `(g(k), h(k))` (the builder and every decoder enforce it), and
    /// a slot's postings are all in the base or all in the overlay, so a
    /// slot meets each shared key exactly once, in the order a merge walk
    /// of the two sketches would — the rows are those of
    /// `join_sketches`, bit for bit.
    ///
    /// A query built under a different hasher than the index shares no
    /// key space with it (its join with every doc is a
    /// [`SketchError::HasherMismatch`]), so it retrieves nothing here.
    pub fn retrieve_joined(&self, query: &CorrelationSketch, top_n: usize, out: &mut JoinedHits) {
        let top_n = if self.hasher == Some(query.hasher()) {
            top_n
        } else {
            0
        };
        self.count_and_select(query, top_n, out);
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
        let mut gather = |x: f64, slots: &[u32], values: &[f64]| {
            for (&slot, &y) in slots.iter().zip(values) {
                let cursor = &mut cursors[slot as usize];
                xs[cursor.row()] = x;
                ys[cursor.row()] = y;
                *cursor = cursor.advanced();
            }
        };
        for &(x, (start, end)) in &out.found {
            let range = start as usize..end as usize;
            gather(x, &self.base.slots[range.clone()], &self.base.values[range]);
        }
        for &(x, at) in &out.found_overlay {
            let list = self.overlay.list(at);
            gather(x, &list.slots, &list.values);
        }
    }

    /// Look up every query key, in the query's sketch order, into
    /// `out.found` and `out.found_overlay`; count every slot's overlap
    /// with `query` into `out.counts` over what was found; then select
    /// the `top_n` live docs under the retrieval order into `out.hits`.
    fn count_and_select(&self, query: &CorrelationSketch, top_n: usize, out: &mut JoinedHits) {
        out.hits.clear();
        out.found.clear();
        out.found_overlay.clear();
        if top_n == 0 || self.live.is_empty() {
            return;
        }
        out.found.extend(
            query
                .entries()
                .iter()
                .filter_map(|e| Some((e.value, self.base.find(e.key)?))),
        );
        if !self.overlay.lists.is_empty() {
            out.found_overlay.extend(
                query
                    .entries()
                    .iter()
                    .filter_map(|e| Some((e.value, self.overlay.find(e.key)?))),
            );
        }
        let counts = &mut out.counts;
        counts.clear();
        counts.resize(self.slots.len(), 0);
        let found_slots = (out.found.iter().map(|&(_, range)| self.base.slots(range)))
            .chain((out.found_overlay.iter()).map(|&(_, at)| &self.overlay.list(at).slots[..]));
        for slots in found_slots {
            for &slot in slots {
                counts[slot as usize] += 1;
            }
        }
        let hits = (0..).zip(&self.live).filter_map(|(doc, &slot)| {
            let count = counts[slot as usize];
            (count > 0).then_some((doc, count, slot))
        });
        let winners = crate::select::top_k_by(hits, top_n, |a, b| {
            b.1.cmp(&a.1)
                .then_with(|| self.id_order(a.2, b.2))
                .then(a.0.cmp(&b.0))
        });
        out.hits.extend(
            winners
                .into_iter()
                .map(|(doc, count, _)| (doc, count as usize)),
        );
    }

    /// The order of two live slots' sketch ids: by rank when both are
    /// base slots, else by the ids themselves — the same total order.
    fn id_order(&self, a: u32, b: u32) -> Ordering {
        let ranks = &self.base.ranks;
        match (ranks.get(a as usize), ranks.get(b as usize)) {
            (Some(ra), Some(rb)) => ra.cmp(rb),
            _ => self.slot_id(a).cmp(self.slot_id(b)),
        }
    }

    /// The sketch id in a slot (the empty string for a removed one,
    /// which keeps comparators total).
    fn slot_id(&self, slot: u32) -> &str {
        self.slots[slot as usize]
            .as_deref()
            .map_or("", CorrelationSketch::id)
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
    use std::collections::BTreeMap;

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

    /// The live postings view: every key some live sketch holds, mapped
    /// to its live `(doc, value bits)` postings in doc order. This is
    /// what retrieval answers from; where a posting is kept (base or
    /// overlay), slot numbers, and the postings removed sketches left
    /// behind do not show in it.
    #[expect(clippy::disallowed_methods, reason = "the keys are sorted before use")]
    fn live_postings(idx: &SketchIndex) -> BTreeMap<KeyHash, Vec<(DocId, u64)>> {
        let doc_of: HashMap<u32, DocId> = idx.live.iter().copied().zip(0..).collect();
        let mut view: BTreeMap<KeyHash, Vec<(DocId, u64)>> = BTreeMap::new();
        let mut add = |key: KeyHash, slots: &[u32], values: &[f64]| {
            for (slot, value) in slots.iter().zip(values) {
                if let Some(&doc) = doc_of.get(slot) {
                    view.entry(key).or_default().push((doc, value.to_bits()));
                }
            }
        };
        let mut base_keys: Vec<(KeyHash, (u32, u32))> =
            idx.base.at.keys().map(|&k| (k, idx.base.at[&k])).collect();
        base_keys.sort_unstable();
        for (key, (start, end)) in base_keys {
            let range = start as usize..end as usize;
            add(key, &idx.base.slots[range.clone()], &idx.base.values[range]);
        }
        let mut overlay_keys: Vec<(KeyHash, u32)> = idx
            .overlay
            .at
            .keys()
            .map(|&k| (k, idx.overlay.at[&k]))
            .collect();
        overlay_keys.sort_unstable();
        for (key, at) in overlay_keys {
            let list = idx.overlay.list(at);
            add(key, &list.slots, &list.values);
        }
        for postings in view.values() {
            assert!(postings.windows(2).all(|w| w[0].0 < w[1].0), "docs ascend");
        }
        view
    }

    /// Two indices hold the same live content: hasher, live sketches in
    /// doc order, ids, the live postings view, the distinct-key count,
    /// the retrieval tie-break order, and generation. It compares what
    /// queries can observe, not the internal layout — the base/overlay
    /// split, slot numbers and dead postings may differ.
    #[expect(clippy::disallowed_methods, reason = "the ids are sorted before use")]
    fn assert_same_index(got: &SketchIndex, want: &SketchIndex, case: &str) {
        let docs = |idx: &SketchIndex| -> Vec<CorrelationSketch> {
            (0..idx.len() as DocId)
                .map(|d| idx.get(d).unwrap().clone())
                .collect()
        };
        let ids = |idx: &SketchIndex| -> BTreeMap<String, DocId> {
            let mut ids: Vec<(String, DocId)> = idx
                .by_id
                .keys()
                .map(|id| {
                    let slot = idx.by_id[id];
                    (id.clone(), idx.live.binary_search(&slot).unwrap() as DocId)
                })
                .collect();
            ids.sort_unstable();
            ids.into_iter().collect()
        };
        // Every pair of live docs, in the order retrieval breaks ties.
        let tie_order = |idx: &SketchIndex| -> Vec<Ordering> {
            let live = &idx.live;
            live.iter()
                .flat_map(|&a| live.iter().map(move |&b| idx.id_order(a, b)))
                .collect()
        };
        assert_eq!(got.hasher, want.hasher, "{case}: hasher");
        assert_eq!(docs(got), docs(want), "{case}: live sketches");
        assert_eq!(ids(got), ids(want), "{case}: ids");
        let view = live_postings(got);
        assert_eq!(view, live_postings(want), "{case}: live postings");
        assert_eq!(got.distinct_keys(), view.len(), "{case}: distinct keys");
        assert_eq!(
            got.distinct_keys(),
            want.distinct_keys(),
            "{case}: distinct keys"
        );
        assert_eq!(tie_order(got), tie_order(want), "{case}: tie-break order");
        let by_id: Vec<Ordering> = docs(got)
            .iter()
            .flat_map(|a| docs(got).into_iter().map(move |b| a.id().cmp(b.id())))
            .collect();
        assert_eq!(tie_order(got), by_id, "{case}: ties break by sketch id");
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
            let bulk =
                SketchIndex::bulk(corpus.iter().cloned().map(Arc::new).collect(), threads).unwrap();
            assert_same_index(&bulk, &want, &format!("bulk threads={threads}"));
            assert!(
                bulk.overlay.lists.is_empty(),
                "every posting is in the base"
            );
            assert_eq!(bulk.base.ranks.len(), corpus.len());
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
                SketchIndex::bulk(corpus.iter().cloned().map(Arc::new).collect(), threads)
                    .unwrap_err(),
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
        idx.apply_delta([
            DeltaRecord::Sketch(b.build(&pair("c", 0..50))),
            DeltaRecord::Tombstone("a/k/v".into()),
        ])
        .unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(0).unwrap().id(), "c/k/v");

        // Appending a live id is a typed duplicate.
        let err = idx
            .apply_delta([DeltaRecord::Sketch(b.build(&pair("c", 0..50)))])
            .unwrap_err();
        assert!(matches!(err, SketchError::DuplicateId(id) if id == "c/k/v"));

        // Tombstoning a non-live id is typed too.
        let err = idx
            .apply_delta([DeltaRecord::Tombstone("a/k/v".into())])
            .unwrap_err();
        assert!(matches!(err, SketchError::TombstoneForUnknownId(id) if id == "a/k/v"));

        // Tombstone-then-re-append revives an id at the end.
        idx.apply_delta([
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

    /// One query's retrieval, hits and samples, as comparable values.
    fn retrieved(
        idx: &SketchIndex,
        q: &CorrelationSketch,
        top_n: usize,
    ) -> Vec<(String, usize, Vec<u64>, Vec<u64>)> {
        let mut out = JoinedHits::default();
        idx.retrieve_joined(q, top_n, &mut out);
        assert_eq!(out.hits(), idx.overlap_candidates(q, top_n));
        (0..out.hits().len())
            .map(|i| {
                let (doc, overlap) = out.hits()[i];
                let (x, y) = out.sample(i);
                let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect();
                (idx.id_of(doc).to_string(), overlap, bits(x), bits(y))
            })
            .collect()
    }

    /// A group of sketches that tie on overlap straddles base and
    /// overlay at the top-N cut, overlay ids sorting between base ids:
    /// ranks decide base pairs, the ids every other pair, and the
    /// answer is a rebuild's at every cut.
    #[test]
    fn a_tie_group_straddling_base_and_overlay_retrieves_what_a_rebuild_does() {
        let b = builder();
        let tied = |t: &str| b.build(&pair(t, 0..60));
        let base: Vec<CorrelationSketch> = ["t6", "t0", "t4", "t2"].map(tied).into();
        let mut idx = SketchIndex::from_sketches(base.clone()).unwrap();
        let mut all = base;
        // An overlay of one key is probed too.
        let one = b.build(&pair("one", 0..1));
        idx.insert(one.clone()).unwrap();
        all.push(one);
        let rebuilt = SketchIndex::from_sketches(all.clone()).unwrap();
        let q = b.build(&pair("q", 0..90));
        assert_eq!(retrieved(&idx, &q, 10), retrieved(&rebuilt, &q, 10));
        for t in ["t5", "t1", "t3"] {
            idx.insert(tied(t)).unwrap();
            all.push(tied(t));
        }
        // `top` outranks the tie group; `one` ranks below it.
        idx.insert(b.build(&pair("top", 0..90))).unwrap();
        all.push(b.build(&pair("top", 0..90)));
        let rebuilt = SketchIndex::from_sketches(all).unwrap();
        assert_same_index(&idx, &rebuilt, "straddling tie group");
        for top_n in 0..10 {
            assert_eq!(
                retrieved(&idx, &q, top_n),
                retrieved(&rebuilt, &q, top_n),
                "top_n={top_n}"
            );
        }
        let ids: Vec<String> = retrieved(&idx, &q, 5).into_iter().map(|h| h.0).collect();
        assert_eq!(ids, ["top/k/v", "t0/k/v", "t1/k/v", "t2/k/v", "t3/k/v"]);
    }

    /// Removing the base sketch of highest overlap drops it from the
    /// hits and leaves every other hit's sample bit for bit a rebuild's.
    #[test]
    fn removing_the_best_base_sketch_leaves_the_rest_as_a_rebuild() {
        let corpus = overlapping_corpus(10);
        let mut idx = SketchIndex::from_sketches(corpus.clone()).unwrap();
        idx.insert(builder().build(&pair("late", 5..70))).unwrap();
        let q = builder().build(&pair("q", 20..110));
        let before = retrieved(&idx, &q, 6);
        let best = before[0].0.clone();
        assert!(
            corpus.iter().any(|s| s.id() == best),
            "the best hit is a base sketch"
        );
        assert!(before[0].1 > before[1].1, "and the only one of its overlap");
        assert!(idx.remove(&best));
        let after = retrieved(&idx, &q, 6);
        assert!(
            after.iter().all(|h| h.0 != best),
            "{best} is gone from the hits"
        );
        let survivors = corpus
            .into_iter()
            .filter(|s| s.id() != best)
            .chain([builder().build(&pair("late", 5..70))]);
        let rebuilt = SketchIndex::from_sketches(survivors).unwrap();
        assert_eq!(after, retrieved(&rebuilt, &q, 6));
        assert_eq!(after[..5], before[1..], "the others keep their samples");
        assert_same_index(&idx, &rebuilt, "best base sketch removed");
    }

    /// Keys left with dead postings only — in the base, in the overlay,
    /// and in both — no longer count as distinct keys, and count again
    /// once a live sketch holds them: `distinct_keys()` and `len()` are
    /// always a rebuild's.
    #[test]
    fn keys_with_only_dead_postings_are_not_distinct_keys() {
        let b = builder();
        let a = b.build(&pair("a", 0..100));
        let c = b.build(&pair("c", 50..150));
        let mut idx = SketchIndex::from_sketches([a.clone(), c.clone()]).unwrap();
        let check = |idx: &SketchIndex, live: &[&CorrelationSketch], case: &str| {
            let rebuilt = SketchIndex::from_sketches(live.iter().map(|&s| s.clone())).unwrap();
            assert_eq!(idx.len(), rebuilt.len(), "{case}: len");
            assert_eq!(
                idx.distinct_keys(),
                rebuilt.distinct_keys(),
                "{case}: distinct keys"
            );
            assert_same_index(idx, &rebuilt, case);
        };
        assert!(idx.remove("a/k/v"));
        check(&idx, &[&c], "base keys of a dead");
        let d = b.build(&pair("d", 200..260));
        let e = b.build(&pair("e", 0..30));
        idx.insert(d.clone()).unwrap();
        idx.insert(e.clone()).unwrap();
        check(
            &idx,
            &[&c, &d, &e],
            "dead base keys revived from the overlay",
        );
        assert!(idx.remove("d/k/v"));
        check(&idx, &[&c, &e], "overlay keys of d dead");
        assert!(idx.remove("e/k/v"));
        assert!(idx.remove("c/k/v"));
        // An emptied index keeps its hasher, which a rebuild over no
        // sketch has not got: compare the counts and the view alone.
        assert_eq!((idx.len(), idx.distinct_keys()), (0, 0));
        assert!(
            live_postings(&idx).is_empty(),
            "every key dead in both parts"
        );
        idx.insert(a.clone()).unwrap();
        check(&idx, &[&a], "a back");
    }

    /// A clone shares the base postings and every sketch, so cloning
    /// copies no posting of the base and no sketch.
    #[test]
    fn a_clone_shares_its_sketches_and_base() {
        let mut idx = SketchIndex::from_sketches(overlapping_corpus(4)).unwrap();
        idx.insert(builder().build(&pair("late", 0..40))).unwrap();
        let clone = idx.clone();
        for doc in 0..idx.len() as DocId {
            assert!(std::ptr::eq(idx.get(doc).unwrap(), clone.get(doc).unwrap()));
        }
        assert!(Arc::ptr_eq(&idx.base, &clone.base));
    }
}
