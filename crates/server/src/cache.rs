//! The generation-aware query-result cache: an O(1) hand-rolled LRU
//! keyed by `(query fingerprint, store generation)`.
//!
//! Because the store generation is part of the key, a corpus mutation
//! invalidates exactly the stale entries — requests against the new
//! generation miss and recompute, while the old generation's entries
//! age out of the LRU tail naturally. Values are the fully rendered
//! response bodies (`Arc<str>`), so a cache hit serves byte-identical
//! output to the miss that populated it, by construction.
//!
//! Retention is bounded two ways: by entry count (`capacity`) and by
//! total value bytes (64 MiB, `BYTE_BUDGET`) — request parameters size the
//! rendered bodies, so an entry-count bound alone would let a client
//! asking huge-`k` queries pin memory proportional to
//! `capacity × max body`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: `(canonical query fingerprint, store generation)`.
pub type CacheKey = (u128, u64);

/// Upper bound on the summed length of cached response bodies. Bodies
/// larger than the whole budget are never cached at all.
const BYTE_BUDGET: usize = 64 << 20;

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Arc<str>,
    prev: usize,
    next: usize,
}

struct Lru {
    map: HashMap<CacheKey, usize>,
    entries: Vec<Entry>,
    /// Slab slots in `entries` freed by byte-budget eviction.
    free: Vec<usize>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
    capacity: usize,
    /// Summed `value.len()` of live entries.
    bytes: usize,
    byte_budget: usize,
    /// Entries removed by capacity/byte-budget pressure over the cache's
    /// lifetime (survives the poisoning dump — it is an odometer, not
    /// cache state).
    evictions: u64,
}

impl Lru {
    fn empty(capacity: usize, byte_budget: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            entries: Vec::with_capacity(capacity.min(1 << 16)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            bytes: 0,
            byte_budget,
            evictions: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Evict the least recently used entry, returning its slab slot to
    /// the free list.
    fn evict_tail(&mut self) {
        let i = self.tail;
        self.unlink(i);
        let key = self.entries[i].key;
        self.map.remove(&key);
        self.bytes -= self.entries[i].value.len();
        self.entries[i].value = Arc::from("");
        self.free.push(i);
        self.evictions += 1;
    }
}

/// A thread-safe LRU of rendered query responses. Capacity 0 disables
/// caching entirely (every lookup misses, every insert is dropped).
pub struct QueryCache {
    inner: Mutex<Lru>,
}

/// Memo capacity for a front end whose response cache holds
/// `cache_capacity` entries: several raw spellings can map onto one
/// cached response, so the memo runs larger than the cache — but
/// entries are ~32 bytes, so even the ceiling is small. 0 stays 0:
/// with caching disabled a memo could never produce a hit.
#[must_use]
pub fn memo_capacity(cache_capacity: usize) -> usize {
    if cache_capacity == 0 {
        0
    } else {
        cache_capacity.saturating_mul(4).clamp(1024, 1 << 16)
    }
}

/// A bounded memo from a *raw request-body* hash to values derived by a
/// pure function of those bytes — the canonical fingerprint, plus
/// whatever per-request accounting the cache-hit path needs.
///
/// Equal bytes parse equally, so a memo hit legitimately skips the full
/// JSON parse in front of the response cache — on large query bodies
/// the parse dominates the warm path. Bodies that differ only in field
/// order or whitespace miss *here* but converge on the same canonical
/// fingerprint through the parse path, so cache semantics are
/// unchanged; the memo is an accelerator, never a source of truth.
pub struct ParseMemo<V> {
    inner: Mutex<HashMap<u128, V>>,
    capacity: usize,
}

impl<V: Copy> ParseMemo<V> {
    /// An empty memo holding at most `capacity` entries (0 disables it).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(HashMap::with_capacity(capacity.min(1 << 16))),
            capacity,
        }
    }

    /// Survive poisoning the same way [`QueryCache`] does: it is only a
    /// memo, so a map interrupted mid-insert is simply dumped.
    fn lock(&self) -> MutexGuard<'_, HashMap<u128, V>> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut map = poisoned.into_inner();
            map.clear();
            self.inner.clear_poison();
            map
        })
    }

    /// The memoized value for these exact body bytes, if any.
    #[must_use]
    pub fn get(&self, raw: u128) -> Option<V> {
        self.lock().get(&raw).copied()
    }

    /// Memoize `value` for `raw`. At capacity the whole map is dumped
    /// rather than tracking recency — a memo refills in one miss per
    /// body, so LRU bookkeeping on the hot path buys nothing.
    pub fn put(&self, raw: u128, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut map = self.lock();
        if map.len() >= self.capacity && !map.contains_key(&raw) {
            map.clear();
        }
        map.insert(raw, value);
    }
}

impl QueryCache {
    /// An empty cache holding at most `capacity` responses totalling at
    /// most 64 MiB.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, BYTE_BUDGET)
    }

    /// An empty cache with an explicit byte budget (tests).
    #[must_use]
    fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        Self {
            inner: Mutex::new(Lru::empty(capacity, byte_budget)),
        }
    }

    /// Lock the LRU, surviving poisoning: the server catches panics per
    /// connection, so a panic inside a cache operation must not turn
    /// every later query into a lock panic (a permanent zombie that
    /// still answers `/healthz`). The interrupted operation may have
    /// left the list inconsistent, so a poisoned cache is dumped — it
    /// is only a cache — rather than served from.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut lru = poisoned.into_inner();
            let evictions = lru.evictions;
            *lru = Lru::empty(lru.capacity, lru.byte_budget);
            lru.evictions = evictions;
            self.inner.clear_poison();
            lru
        })
    }

    /// Fetch a cached response and mark it most recently used.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let mut lru = self.lock();
        let &i = lru.map.get(key)?;
        let value = Arc::clone(&lru.entries[i].value);
        if lru.head != i {
            lru.unlink(i);
            lru.push_front(i);
        }
        Some(value)
    }

    /// Insert (or refresh) a response, evicting least recently used
    /// entries while over the count capacity or the byte budget. A
    /// value that alone exceeds the whole budget is not cached.
    pub fn put(&self, key: CacheKey, value: Arc<str>) {
        let mut lru = self.lock();
        if lru.capacity == 0 || value.len() > lru.byte_budget {
            return;
        }
        if let Some(&i) = lru.map.get(&key) {
            lru.bytes -= lru.entries[i].value.len();
            lru.bytes += value.len();
            lru.entries[i].value = value;
            if lru.head != i {
                lru.unlink(i);
                lru.push_front(i);
            }
        } else {
            let entry = Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            };
            let i = if let Some(i) = lru.free.pop() {
                lru.entries[i] = entry;
                i
            } else {
                lru.entries.push(entry);
                lru.entries.len() - 1
            };
            lru.bytes += lru.entries[i].value.len();
            lru.map.insert(key, i);
            lru.push_front(i);
        }
        // The freshly touched entry is the head, so these evictions
        // never remove it: once it is the only survivor, `map.len()`
        // is 1 ≤ capacity and `bytes ≤ byte_budget` (checked above).
        while lru.map.len() > lru.capacity || lru.bytes > lru.byte_budget {
            lru.evict_tail();
        }
    }

    /// Number of cached responses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Entries evicted by capacity or byte-budget pressure since the
    /// cache was created.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u128, generation: u64) -> CacheKey {
        (fp, generation)
    }

    fn val(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_miss_and_lru_eviction_order() {
        let c = QueryCache::new(2);
        assert!(c.get(&key(1, 0)).is_none());
        c.put(key(1, 0), val("one"));
        c.put(key(2, 0), val("two"));
        assert_eq!(c.get(&key(1, 0)).as_deref(), Some("one"));
        // 2 is now least recently used; inserting a third evicts it.
        c.put(key(3, 0), val("three"));
        assert!(c.get(&key(2, 0)).is_none());
        assert_eq!(c.get(&key(1, 0)).as_deref(), Some("one"));
        assert_eq!(c.get(&key(3, 0)).as_deref(), Some("three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_fingerprint_different_generation_are_distinct() {
        let c = QueryCache::new(8);
        c.put(key(7, 0), val("gen0"));
        c.put(key(7, 1), val("gen1"));
        assert_eq!(c.get(&key(7, 0)).as_deref(), Some("gen0"));
        assert_eq!(c.get(&key(7, 1)).as_deref(), Some("gen1"));
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let c = QueryCache::new(2);
        c.put(key(1, 0), val("a"));
        c.put(key(2, 0), val("b"));
        c.put(key(1, 0), val("a2"));
        c.put(key(3, 0), val("c")); // evicts 2, not the refreshed 1
        assert_eq!(c.get(&key(1, 0)).as_deref(), Some("a2"));
        assert!(c.get(&key(2, 0)).is_none());
    }

    #[test]
    fn byte_budget_bounds_retained_memory() {
        // Budget of 100 bytes: four 30-byte values can't all stay.
        let c = QueryCache::with_byte_budget(1024, 100);
        let big = "x".repeat(30);
        for i in 0..4u128 {
            c.put(key(i, 0), val(&big));
        }
        assert_eq!(c.len(), 3, "fourth insert must evict the LRU entry");
        assert!(c.get(&key(0, 0)).is_none());
        assert_eq!(c.get(&key(3, 0)).as_deref(), Some(big.as_str()));
        // A value bigger than the whole budget is never cached.
        c.put(key(9, 0), val(&"y".repeat(101)));
        assert!(c.get(&key(9, 0)).is_none());
        assert_eq!(c.len(), 3);
        // Refreshing a key with a bigger value re-balances the budget.
        c.put(key(3, 0), val(&"z".repeat(90)));
        assert_eq!(c.get(&key(3, 0)).as_deref(), Some("z".repeat(90).as_str()));
        assert_eq!(c.len(), 1, "the two other 30-byte entries must go");
        // Freed slab slots are reused, not leaked.
        for i in 100..200u128 {
            c.put(key(i, 0), val("small"));
        }
        assert!(c.len() <= 20);
    }

    #[test]
    fn evictions_count_both_pressure_kinds() {
        let c = QueryCache::with_byte_budget(2, 100);
        assert_eq!(c.evictions(), 0);
        c.put(key(1, 0), val("a"));
        c.put(key(2, 0), val("b"));
        assert_eq!(c.evictions(), 0, "within capacity: nothing evicted");
        c.put(key(3, 0), val("c"));
        assert_eq!(c.evictions(), 1, "count-capacity eviction");
        // A budget-sized value: the third entry trips a count eviction
        // first, then the remaining 1-byte survivor goes out by bytes.
        c.put(key(4, 0), val(&"x".repeat(100)));
        assert_eq!(c.evictions(), 3, "count then byte-budget eviction");
        // Refreshing an existing key evicts nothing.
        c.put(key(4, 0), val("small"));
        assert_eq!(c.evictions(), 3);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = QueryCache::new(0);
        c.put(key(1, 0), val("x"));
        assert!(c.get(&key(1, 0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let c = QueryCache::new(1);
        for i in 0..100u128 {
            c.put(key(i, 0), val(&i.to_string()));
            assert_eq!(c.get(&key(i, 0)).as_deref(), Some(i.to_string().as_str()));
            if i > 0 {
                assert!(c.get(&key(i - 1, 0)).is_none());
            }
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn poisoned_lock_recovers_by_dumping() {
        let c = QueryCache::new(4);
        c.put(key(1, 0), val("x"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = c.inner.lock().unwrap();
            panic!("poison the cache lock");
        }));
        assert!(result.is_err());
        // The cache dumped its (possibly inconsistent) contents and
        // keeps working — no permanent lock panic on every later query.
        assert!(c.get(&key(1, 0)).is_none());
        c.put(key(2, 0), val("y"));
        assert_eq!(c.get(&key(2, 0)).as_deref(), Some("y"));
    }

    #[test]
    fn parse_memo_roundtrips_and_dumps_at_capacity() {
        let m: ParseMemo<u128> = ParseMemo::new(2);
        assert!(m.get(1).is_none());
        m.put(1, 10);
        m.put(2, 20);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(2), Some(20));
        // Refreshing an existing key at capacity must not dump.
        m.put(2, 21);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(2), Some(21));
        // A new key at capacity dumps the map, then inserts.
        m.put(3, 30);
        assert!(m.get(1).is_none());
        assert_eq!(m.get(3), Some(30));
    }

    #[test]
    fn parse_memo_zero_capacity_disables() {
        let m: ParseMemo<u128> = ParseMemo::new(0);
        m.put(1, 10);
        assert!(m.get(1).is_none());
    }

    #[test]
    fn parse_memo_poisoned_lock_recovers_by_dumping() {
        let m: ParseMemo<u128> = ParseMemo::new(8);
        m.put(1, 10);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.inner.lock().unwrap();
            panic!("poison the memo lock");
        }));
        assert!(result.is_err());
        assert!(m.get(1).is_none());
        m.put(2, 20);
        assert_eq!(m.get(2), Some(20));
    }

    #[test]
    fn concurrent_access_is_safe_and_bounded() {
        let c = Arc::new(QueryCache::new(64));
        std::thread::scope(|s| {
            for t in 0..8u128 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u128 {
                        let k = key(t * 1000 + (i % 96), i as u64 % 3);
                        if let Some(v) = c.get(&k) {
                            assert!(!v.is_empty());
                        } else {
                            c.put(k, val("payload"));
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 64);
    }
}
