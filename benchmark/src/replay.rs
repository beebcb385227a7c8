//! In-process replays of one request, stage by stage, through the
//! product's public functions — the same calls, in the same order, as
//! `sketch_server`'s handlers make.
//!
//! One replay serves two purposes. Untraced, its bytes are the answer
//! the served response must equal (the verify pass). Traced, every
//! stage is a span, which is where the per-layer numbers come from:
//! nothing inside the product is instrumented.
//!
//! The replay keeps its own memo and cache, sized like the server's and
//! fed the same request sequence, so it hits and misses when the server
//! does.

use std::io::Cursor;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use correlation_sketches::{join_sketches_into, CorrelationSketch, JoinSample};
use sketch_index::{engine, merge_shard_candidates, QueryOptions, ReportedResult, ShardRows};
use sketch_ranking::score_estimates;
use sketch_server::api::{self, QueryParams, QueryRequest, ShardState};
use sketch_server::cache::{memo_capacity, ParseMemo};
use sketch_server::{http, IndexSnapshot, QueryCache};
use sketch_stats::{scored_estimate, BootstrapScratch, CorrelationEstimator, ScoredEstimate};

use crate::spans::Tracer;

/// The stages of one replay: spans under one root, tagged with the op,
/// and the running sum of their durations. Untraced (the verify pass),
/// stages just run and nothing is timed.
struct Stages<'a> {
    tracer: Option<&'a mut Tracer>,
    root: Option<u32>,
    op: u32,
    /// Summed duration (ns) of the stages run so far.
    spent: u64,
    /// Duration (ns) of the stage run last.
    last: u64,
}

impl<'a> Stages<'a> {
    /// Open the root span `name` (when traced).
    fn open(mut tracer: Option<&'a mut Tracer>, name: &'static str, op: u32) -> Self {
        let root = tracer.as_deref_mut().map(|t| t.begin(name, None, op));
        Self {
            tracer,
            root,
            op,
            spent: 0,
            last: 0,
        }
    }

    /// Run one stage as a child span of the root.
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return f();
        };
        let id = tracer.begin(name, self.root, self.op);
        let out = f();
        self.last = tracer.end(id);
        self.spent += self.last;
        out
    }

    /// Close the root span; hands the tracer back with the summed time.
    fn close(self) -> (Option<&'a mut Tracer>, u64) {
        let mut tracer = self.tracer;
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), self.root) {
            t.end(root);
        }
        (tracer, self.spent)
    }
}

/// Exact per-op counts taken at the span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Candidates retrieved (and joined).
    pub candidates: usize,
    /// Rows across all join samples of the op.
    pub join_rows: usize,
    /// Calls of the requested estimator / of the cheap Pearson pass.
    pub expensive_calls: usize,
    pub cheap_calls: usize,
    /// Bytes of every coordinator↔worker body, both phases.
    pub wire_bytes: usize,
    /// Reports the merge shipped from workers.
    pub shipped: usize,
    /// Durations the decomposition needs as numbers, not just spans.
    pub execute_ns: u64,
    pub parts_ns: u64,
    /// Time on the path the caller waits for: every coordinator-side
    /// stage plus, per scatter phase, the slowest shard.
    pub critical_ns: u64,
}

/// The wire bytes `HttpClient::post` sends, so `read_request` parses
/// what the server's socket would deliver.
fn request_wire(path: &str, body: &str) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nHost: sketch-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// `server.http.read`: parse one request off an in-memory stream.
fn read_stage(st: &mut Stages<'_>, path: &str, body: &str) -> http::Request {
    let wire = request_wire(path, body);
    let never = AtomicBool::new(false);
    st.run("server.http.read", || {
        http::read_request(&mut Cursor::new(&wire), &mut Vec::new(), &never, None, None)
            .expect("the ledger's own request bytes are well-formed")
    })
}

/// `server.http.write`: render one response into memory.
fn write_stage(st: &mut Stages<'_>, body: &str) {
    st.run("server.http.write", || {
        let mut sink = Vec::with_capacity(body.len() + 128);
        http::write_response(&mut sink, 200, body, true).expect("writing to memory cannot fail");
        std::hint::black_box(sink);
    });
}

/// The memo + cache in front of a query handler, as both front ends
/// build them from one `cache_capacity`.
struct FrontCache {
    memo: ParseMemo<(u128, bool)>,
    cache: QueryCache,
}

/// What the cache front decided for a request.
enum Front {
    Hit(Arc<str>),
    Miss { req: QueryRequest, key: (u128, u64) },
}

impl FrontCache {
    fn new(cache_capacity: usize) -> Self {
        Self {
            memo: ParseMemo::new(memo_capacity(cache_capacity)),
            cache: QueryCache::new(cache_capacity),
        }
    }

    /// Fingerprint, memo probe, cache probe, and on a miss the parse —
    /// the prefix `handle_query` shares between server and coordinator.
    fn probe(
        &self,
        st: &mut Stages<'_>,
        body: &[u8],
        generation: u64,
        defaults: &QueryParams,
    ) -> Front {
        let raw = st.run("server.cache.fingerprint", || api::raw_fingerprint(body));
        let hit = st.run("server.cache.get", || {
            self.memo
                .get(raw)
                .and_then(|(fp, _)| self.cache.get(&(fp, generation)))
        });
        if let Some(cached) = hit {
            return Front::Hit(cached);
        }
        let req = st.run("server.api.parse", || {
            QueryRequest::parse(body, defaults).expect("the ledger's own bodies parse")
        });
        let fp = st.run("server.cache.fingerprint", || req.fingerprint());
        let key = (fp, generation);
        st.run("server.cache.put", || self.memo.put(raw, (fp, req.trace)));
        match st.run("server.cache.get", || self.cache.get(&key)) {
            Some(cached) => Front::Hit(cached),
            None => Front::Miss { req, key },
        }
    }

    fn store(&self, st: &mut Stages<'_>, key: (u128, u64), rendered: &str) {
        st.run("server.cache.put", || {
            self.cache.put(key, Arc::from(rendered));
        });
    }
}

/// Reusable buffers for [`decompose`], so the decomposition allocates
/// nothing per op once warm.
#[derive(Default)]
pub struct Scratch {
    samples: Vec<JoinSample>,
    bootstrap: BootstrapScratch,
}

/// Take `engine::top_k_*` apart from outside: the same retrieval, joins,
/// estimator calls and scoring it performs, each timed on its own under
/// a `decompose` root. When the options engage the two-pass plan, its
/// pass-1 estimator (Pearson at the pruning confidence) is timed over
/// every candidate too. Returns the summed stage time; fills `counts`.
pub fn decompose(
    tracer: &mut Tracer,
    op: u32,
    index: &sketch_index::SketchIndex,
    query: &CorrelationSketch,
    opts: &QueryOptions,
    scratch: &mut Scratch,
    counts: &mut Counts,
) -> u64 {
    let mut st = Stages::open(Some(tracer), "decompose", op);
    let hits = st.run("index.retrieve", || {
        index.overlap_candidates(query, opts.overlap_candidates)
    });
    counts.candidates = hits.len();
    if scratch.samples.len() < hits.len() {
        scratch.samples.resize_with(hits.len(), JoinSample::default);
    }
    let samples = &mut scratch.samples[..hits.len()];
    st.run("core.join", || {
        for ((doc, _), sample) in hits.iter().zip(samples.iter_mut()) {
            let sketch = index.get(*doc).expect("retrieved docs are live");
            join_sketches_into(query, sketch, sample).expect("one hasher per lake");
        }
    });
    counts.join_rows = samples.iter().map(JoinSample::len).sum();

    // One estimator over every admitted sample: the estimates and how
    // many calls that took.
    let bootstrap = &mut scratch.bootstrap;
    let mut estimate_all = |st: &mut Stages<'_>,
                            name: &'static str,
                            estimator: CorrelationEstimator,
                            confidence: f64|
     -> (Vec<Option<ScoredEstimate>>, usize) {
        let min = opts.min_sample.max(estimator.min_samples());
        let mut calls = 0usize;
        let estimates = st.run(name, || {
            samples
                .iter()
                .map(|s| {
                    if s.len() < min {
                        return None;
                    }
                    calls += 1;
                    scored_estimate(estimator, &s.x, &s.y, confidence, bootstrap).ok()
                })
                .collect()
        });
        (estimates, calls)
    };
    if let Some(confidence) = opts.plan.pruning_confidence(opts.scorer, opts.estimator) {
        let pearson = CorrelationEstimator::Pearson;
        counts.cheap_calls = estimate_all(&mut st, "stats.cheap_estimate", pearson, confidence).1;
    }
    let (estimates, calls) =
        estimate_all(&mut st, "stats.estimate", opts.estimator, opts.confidence);
    counts.expensive_calls = calls;
    std::hint::black_box(st.run("ranking.score", || score_estimates(opts.scorer, &estimates)));
    st.close().1
}

/// Replay of a single `sketch_server::start` server.
pub struct SingleReplay {
    snap: IndexSnapshot,
    capacity: usize,
    front: FrontCache,
    defaults: QueryParams,
    scratch: Scratch,
}

impl SingleReplay {
    pub fn new(snap: IndexSnapshot, cache_capacity: usize) -> Self {
        Self {
            snap,
            capacity: cache_capacity,
            front: FrontCache::new(cache_capacity),
            defaults: QueryParams::default(),
            scratch: Scratch::default(),
        }
    }

    /// Forget every cached answer, as a restarted server has.
    pub fn restart(&mut self) {
        self.front = FrontCache::new(self.capacity);
    }

    /// What `POST /query` must answer for `body`, byte for byte.
    pub fn replay(&mut self, body: &str, tracer: Option<&mut Tracer>, op: u32) -> (String, Counts) {
        let mut counts = Counts {
            request_bytes: body.len(),
            ..Counts::default()
        };
        let mut st = Stages::open(tracer, "replay", op);
        let request = read_stage(&mut st, "/query", body);
        let generation = self.snap.generation();
        let mut miss = None;
        let rendered = match self
            .front
            .probe(&mut st, &request.body, generation, &self.defaults)
        {
            Front::Hit(cached) => cached.to_string(),
            Front::Miss { req, key } => {
                let params = req.params;
                let opts = params.to_options();
                let sketch = st.run("server.api.build_query", || {
                    self.snap
                        .build_query(&req.body.id, req.body.keys, req.body.values)
                });
                let results = st.run("index.execute", || {
                    engine::top_k_with_reports(self.snap.index(), &sketch, &opts, params.alpha)
                });
                counts.execute_ns = st.last;
                let rendered = st.run("server.api.render", || {
                    api::render_query_response(generation, &params, &results)
                });
                self.front.store(&mut st, key, &rendered);
                miss = Some((sketch, opts));
                rendered
            }
        };
        write_stage(&mut st, &rendered);
        counts.response_bytes = rendered.len();
        let (tracer, spent) = st.close();
        counts.critical_ns = spent;
        if let (Some(tracer), Some((sketch, opts))) = (tracer, miss) {
            counts.parts_ns = decompose(
                tracer,
                op,
                self.snap.index(),
                &sketch,
                &opts,
                &mut self.scratch,
                &mut counts,
            );
        }
        (rendered, counts)
    }
}

/// Replay of a coordinator over worker servers: scatter, lossless
/// merge, report fetch — sequentially, one worker after the other.
pub struct ClusterReplay {
    snaps: Vec<IndexSnapshot>,
    capacity: usize,
    front: FrontCache,
    defaults: QueryParams,
    first_worker_wires: Vec<(&'static str, String)>,
}

impl ClusterReplay {
    pub fn new(snaps: Vec<IndexSnapshot>, cache_capacity: usize) -> Self {
        Self {
            snaps,
            capacity: cache_capacity,
            front: FrontCache::new(cache_capacity),
            defaults: QueryParams::default(),
            first_worker_wires: Vec::new(),
        }
    }

    /// Forget every cached answer, as a restarted coordinator has.
    pub fn restart(&mut self) {
        self.front = FrontCache::new(self.capacity);
    }

    /// What the last replayed miss sent to the first worker: `(path,
    /// body)` of its scatter and (if that shard held winners) its report
    /// fetch — what the scatter round-trip probe posts to the real one.
    pub fn first_worker_wires(&self) -> &[(&'static str, String)] {
        &self.first_worker_wires
    }

    /// What the coordinator's `POST /query` must answer for `body`.
    pub fn replay(&mut self, body: &str, tracer: Option<&mut Tracer>, op: u32) -> (String, Counts) {
        let mut counts = Counts {
            request_bytes: body.len(),
            ..Counts::default()
        };
        self.first_worker_wires.clear();
        let mut st = Stages::open(tracer, "replay", op);
        // Stage time the caller does not wait for: workers answer side
        // by side, so per scatter phase only the slowest one counts.
        let mut off_path = 0u64;
        let request = read_stage(&mut st, "/query", body);
        // The coordinator keys its cache by the hash of every worker's
        // (generation, sketch count).
        let vector: Vec<(u64, u64)> = self
            .snaps
            .iter()
            .map(|s| (s.generation(), s.index().len() as u64))
            .collect();
        let generation = api::generation_hash(&vector);
        let rendered = match self
            .front
            .probe(&mut st, &request.body, generation, &self.defaults)
        {
            Front::Hit(cached) => cached.to_string(),
            Front::Miss { req, key } => {
                let params = req.params;
                let opts = params.to_options();
                let wire = st.run("server.coordinator.wire_render", || {
                    api::render_shard_query_request(&req.body, &params)
                });

                // Phase 1 on every worker: read, parse, sketch,
                // candidates, render, write.
                let (mut all, mut slowest) = (0u64, 0u64);
                let mut shards = Vec::with_capacity(self.snaps.len());
                for snap in &self.snaps {
                    let before = st.spent;
                    let got = read_stage(&mut st, "/shard_query", &wire);
                    let parsed = st.run("server.api.parse", || {
                        QueryRequest::parse(&got.body, &self.defaults).expect("wire bodies parse")
                    });
                    let sketch = st.run("server.api.build_query", || {
                        snap.build_query(&parsed.body.id, parsed.body.keys, parsed.body.values)
                    });
                    let rows = st.run("index.shard_candidates", || {
                        engine::shard_candidates(snap.index(), &sketch, &opts)
                    });
                    counts.candidates += rows.len();
                    let reply = st.run("server.coordinator.wire_render", || {
                        api::render_shard_query_response(
                            snap.generation(),
                            snap.index().len(),
                            &rows,
                        )
                    });
                    write_stage(&mut st, &reply);
                    counts.wire_bytes += wire.len() + reply.len();
                    all += st.spent - before;
                    slowest = slowest.max(st.spent - before);
                    shards.push((sketch, reply));
                }
                off_path += all - slowest;

                let parsed_rows: Vec<_> = shards
                    .iter()
                    .map(|(_, reply)| {
                        st.run("server.coordinator.wire_parse", || {
                            api::parse_shard_query_response(reply).expect("worker replies parse")
                        })
                    })
                    .collect();
                let shard_rows: Vec<ShardRows<'_>> = parsed_rows
                    .iter()
                    .map(|p| ShardRows {
                        rows: &p.rows,
                        sketches: p.sketches,
                    })
                    .collect();
                let outcome = st.run("index.merge", || merge_shard_candidates(&shard_rows, &opts));
                counts.shipped = outcome.shipped;

                // Phase 2: reports for the surviving winners only, from
                // the shards that hold them.
                let mut docs = vec![Vec::new(); self.snaps.len()];
                for w in &outcome.winners {
                    docs[w.shard].push(w.local_doc);
                }
                let (mut all, mut slowest) = (0u64, 0u64);
                let mut reports = Vec::with_capacity(self.snaps.len());
                for ((snap, (sketch, _)), docs) in self.snaps.iter().zip(&shards).zip(&docs) {
                    if docs.is_empty() {
                        reports.push(Vec::new());
                        continue;
                    }
                    let wire = st.run("server.coordinator.wire_render", || {
                        api::render_shard_reports_request(&req.body, &params, docs)
                    });
                    let before = st.spent;
                    let got = read_stage(&mut st, "/shard_reports", &wire);
                    st.run("server.api.parse", || {
                        let parsed = QueryRequest::parse(&got.body, &self.defaults);
                        let docs = api::extract_docs(&got.body);
                        assert!(parsed.is_ok() && docs.is_ok(), "wire bodies parse");
                    });
                    // The worker sketches the query again for phase 2.
                    st.run("server.api.build_query", || {
                        snap.build_query(
                            &req.body.id,
                            req.body.keys.clone(),
                            req.body.values.clone(),
                        )
                    });
                    let found = st.run("index.reports", || {
                        let mut sample = JoinSample::default();
                        docs.iter()
                            .map(|&doc| {
                                engine::report_for_doc(
                                    snap.index(),
                                    sketch,
                                    doc,
                                    &opts,
                                    params.alpha,
                                    &mut sample,
                                )
                            })
                            .collect::<Vec<_>>()
                    });
                    let reply = st.run("server.coordinator.wire_render", || {
                        api::render_shard_reports_response(snap.generation(), &found)
                    });
                    write_stage(&mut st, &reply);
                    all += st.spent - before;
                    slowest = slowest.max(st.spent - before);
                    let parsed = st.run("server.coordinator.wire_parse", || {
                        api::parse_shard_reports_response(&reply, params.estimator)
                            .expect("worker replies parse")
                    });
                    counts.wire_bytes += wire.len() + reply.len();
                    reports.push(parsed.reports);
                    if reports.len() == 1 {
                        self.first_worker_wires.push(("/shard_reports", wire));
                    }
                }
                off_path += all - slowest;
                self.first_worker_wires.insert(0, ("/shard_query", wire));

                let mut cursors = vec![0usize; self.snaps.len()];
                let results: Vec<ReportedResult> = outcome
                    .winners
                    .into_iter()
                    .map(|w| {
                        let report = reports[w.shard][cursors[w.shard]];
                        cursors[w.shard] += 1;
                        ReportedResult {
                            result: w.result,
                            report,
                        }
                    })
                    .collect();
                let states: Vec<ShardState> = self
                    .snaps
                    .iter()
                    .map(|snap| ShardState {
                        generation: snap.generation(),
                        degraded: false,
                    })
                    .collect();
                let rendered = st.run("server.api.render", || {
                    api::render_coordinator_response(
                        &states,
                        &params,
                        outcome.merged,
                        outcome.shipped,
                        &results,
                    )
                });
                self.front.store(&mut st, key, &rendered);
                rendered
            }
        };
        write_stage(&mut st, &rendered);
        counts.response_bytes = rendered.len();
        counts.critical_ns = st.close().1 - off_path;
        (rendered, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_spans_under_one_root_and_sum_up() {
        let mut tracer = Tracer::new();
        let mut st = Stages::open(Some(&mut tracer), "replay", 7);
        assert_eq!(st.run("a", || 41 + 1), 42);
        let first = st.last;
        st.run("b", || ());
        assert_eq!(st.spent, first + st.last);
        let (_, spent) = st.close();
        assert_eq!(tracer.spans.len(), 3);
        assert_eq!(tracer.spans[0].name, "replay");
        for span in &tracer.spans[1..] {
            assert_eq!((span.parent, span.op_id), (Some(0), 7));
        }
        let stages: u64 = tracer.spans[1..].iter().map(|s| s.duration_ns()).sum();
        assert_eq!(spent, stages);
        assert!(tracer.spans[0].duration_ns() >= stages);
    }

    #[test]
    fn untraced_stages_just_run() {
        let mut st = Stages::open(None, "replay", 0);
        assert_eq!(st.run("a", || 5), 5);
        let (tracer, spent) = st.close();
        assert!(tracer.is_none());
        assert_eq!(spent, 0);
    }
}
