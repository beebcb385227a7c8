//! Parallel corpus sketching.
//!
//! Building one sketch is a single sequential pass, but a corpus has
//! thousands of independent column pairs — the offline indexing step of
//! the paper's pipeline (Section 5.5 indexes every pair of the NYC
//! corpus) is embarrassingly parallel. This module fans the work out over
//! scoped threads; results are bit-identical to the serial build and
//! returned in input order.

use std::sync::atomic::{AtomicUsize, Ordering};

use sketch_table::ColumnPair;

use crate::builder::{SketchBuilder, SketchConfig};
use crate::sketch::CorrelationSketch;

/// Pairs a worker claims at a time: small enough that a worker that drew
/// long columns does not leave the others idle at the end, large enough
/// that the shared cursor is touched rarely.
const BLOCK: usize = 8;

/// Build sketches for every column pair using up to `threads` worker
/// threads. Deterministic: output order matches `pairs` and each sketch
/// equals its serial counterpart.
///
/// `threads == 0` is treated as 1; `threads` is capped at the number of
/// pairs.
#[must_use]
pub fn build_sketches_parallel(
    pairs: &[ColumnPair],
    config: SketchConfig,
    threads: usize,
) -> Vec<CorrelationSketch> {
    let threads = threads.clamp(1, pairs.len().max(1));
    let builder = SketchBuilder::new(config);
    if threads == 1 {
        return pairs.iter().map(|p| builder.build(p)).collect();
    }

    // Workers claim blocks of pairs from one cursor, so each ends within
    // about a block's work of the others whatever the row counts; every
    // block comes back tagged with its start and is put back in place.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
            if start >= pairs.len() {
                return done;
            }
            let block = &pairs[start..(start + BLOCK).min(pairs.len())];
            done.push((
                start,
                block.iter().map(|p| builder.build(p)).collect::<Vec<_>>(),
            ));
        }
    };
    let mut blocks = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut blocks = work();
        for h in helpers {
            blocks.extend(h.join().expect("sketching workers do not panic"));
        }
        blocks
    });
    blocks.sort_unstable_by_key(|&(start, _)| start);
    blocks
        .into_iter()
        .flat_map(|(_, sketches)| sketches)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n_pairs: usize) -> Vec<ColumnPair> {
        (0..n_pairs)
            .map(|t| {
                let rows = 100 + (t * 37) % 900;
                ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (0..rows).map(|i| format!("key-{}-{i}", t % 3)).collect(),
                    (0..rows).map(|i| (i as f64 * 0.3).sin()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let pairs = corpus(23);
        let config = SketchConfig::with_size(64);
        let serial = build_sketches_parallel(&pairs, config, 1);
        for threads in [2, 4, 7, 64] {
            let parallel = build_sketches_parallel(&pairs, config, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn order_matches_input() {
        let pairs = corpus(9);
        let sketches = build_sketches_parallel(&pairs, SketchConfig::with_size(16), 4);
        for (p, s) in pairs.iter().zip(&sketches) {
            assert_eq!(s.id(), p.id());
        }
    }

    #[test]
    fn degenerate_thread_counts() {
        let pairs = corpus(3);
        let config = SketchConfig::with_size(16);
        assert_eq!(
            build_sketches_parallel(&pairs, config, 0),
            build_sketches_parallel(&pairs, config, 1)
        );
        assert_eq!(build_sketches_parallel(&[], config, 8), Vec::new());
    }
}
