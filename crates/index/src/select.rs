//! Bounded top-k selection.
//!
//! Both retrieval (`overlap_candidates`) and ranking (`engine::execute`)
//! keep only `k` winners out of a much larger candidate stream. A full
//! sort is `O(n log n)` over everything including the discarded tail;
//! selecting through a size-`k` binary heap is `O(n log k)` and touches
//! the tail exactly once. The comparator is a closure (total order), so
//! callers don't need `Ord` wrapper types.

use std::cmp::Ordering;

/// Select the `k` smallest items under `cmp` (i.e. `cmp(a, b) == Less`
/// means `a` ranks ahead of `b`), returned in ascending `cmp` order —
/// identical to `sort_by(cmp); truncate(k)` for any total order, at
/// `O(n log k)`.
pub(crate) fn top_k_by<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    // `heap` is a max-heap under `cmp`: the root is the *worst* item
    // currently kept, ready to be displaced. The pre-allocation is a
    // hint capped well below `k`, which may be attacker-controlled
    // (e.g. a served query's `candidates`) — an absurd `k` must not
    // become a huge allocation before the first item arrives.
    let mut heap: Vec<T> = Vec::with_capacity(k.saturating_add(1).min(4096));
    for item in items {
        if heap.len() < k {
            heap.push(item);
            sift_up(&mut heap, &cmp);
        } else if cmp(&item, &heap[0]) == Ordering::Less {
            heap[0] = item;
            sift_down(&mut heap, &cmp);
        }
    }
    heap.sort_by(cmp);
    heap
}

fn sift_up<T>(heap: &mut [T], cmp: &impl Fn(&T, &T) -> Ordering) {
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down<T>(heap: &mut [T], cmp: &impl Fn(&T, &T) -> Ordering) {
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < heap.len() && cmp(&heap[l], &heap[largest]) == Ordering::Greater {
            largest = l;
        }
        if r < heap.len() && cmp(&heap[r], &heap[largest]) == Ordering::Greater {
            largest = r;
        }
        if largest == i {
            return;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

#[cfg(test)]
mod tests {
    use super::top_k_by;

    #[test]
    fn equals_sort_then_truncate_for_every_k() {
        // Deterministic pseudo-random input with duplicates.
        let items: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(11) % 100)
            .collect();
        for k in [0, 1, 2, 7, 100, 499, 500, 1000] {
            let mut expected = items.clone();
            expected.sort();
            expected.truncate(k);
            let got = top_k_by(items.iter().copied(), k, |a, b| a.cmp(b));
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn respects_custom_total_order() {
        // Descending by value, ties ascending by index — the retrieval
        // ordering shape.
        let items = vec![(3u32, 9usize), (5, 2), (5, 1), (1, 0), (4, 4)];
        let got = top_k_by(items, 3, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(got, vec![(5, 1), (5, 2), (4, 4)]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_by(Vec::<u8>::new(), 5, |a, b| a.cmp(b)).is_empty());
    }
}
