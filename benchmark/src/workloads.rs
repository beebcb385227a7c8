//! The four workloads. Each sets the system up, verifies answers, then
//! either measures for `--seconds` (untraced: the end-to-end metrics)
//! or replays a fixed number of ops under spans (traced: the per-layer
//! metrics). All are closed loops: every caller modelled — a
//! coordinator front end, a notebook session, a CLI batch — waits for
//! its reply before it asks again.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use correlation_sketches::{json, CorrelationSketch, SketchBuilder};
use sketch_hashing::{KeyHasher, TupleHasher};
use sketch_index::{engine, PlanMode, PlanStats, QueryOptions, QueryResult, Scorer, SketchIndex};
use sketch_server::{api, HttpClient, IndexSnapshot};
use sketch_stats::CorrelationEstimator;
use sketch_store::{append_corpus, compact_corpus, read_corpus, remove_from_corpus, PackOptions};

use crate::alloc;
use crate::lake::{
    ground_truth, query_body, recall_at_k, traced_body, Lake, OpSeq, Sizes, Truth, SERVED_K,
    THREADS,
};
use crate::metrics::{RunResult, Values};
use crate::replay::{decompose, ClusterReplay, Counts, Scratch, SingleReplay};
use crate::spans::{self, Span, Tracer};
use crate::summary::{beyond, median, percentile, sorted, tail_percentile};
use crate::system::{
    out_dir, set_up_repeatedly, sketch_config, Running, SetupTimes, TempRoot, Topology, HOT_CACHE,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    ClusterCold,
    LakeChurn,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::ServeCold,
        Self::ServeHot,
        Self::ClusterCold,
        Self::LakeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeCold => "serve_cold",
            Self::ServeHot => "serve_hot",
            Self::ClusterCold => "cluster_cold",
            Self::LakeChurn => "lake_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn topology(self) -> Topology {
        match self {
            Self::ServeCold | Self::ServeHot => Topology::Single,
            Self::ClusterCold => Topology::Cluster,
            Self::LakeChurn => Topology::Direct,
        }
    }

    /// Capacity of every response cache in the workload's system.
    fn cache(self, sizes: &Sizes) -> usize {
        match self {
            Self::ServeHot => HOT_CACHE,
            _ => sizes.cold_cache,
        }
    }

    /// Callers in the timed window, each waiting for its reply.
    fn clients(self) -> usize {
        match self {
            Self::ServeCold | Self::ServeHot => 2,
            Self::ClusterCold | Self::LakeChurn => 1,
        }
    }

    /// The percentile `latency_p99_ms` is read at, in every slice of the
    /// window: the highest of p99, p95 and p90 that keeps at least ten
    /// samples beyond it in a slice with room to spare, at the commit
    /// that defined the benchmark — slices of about 3.5k, 200k and 500
    /// ops on the served workloads, of exactly 100 on `lake_churn`. It
    /// is fixed per workload, not taken from the run's own op count, so
    /// that two runs (or two commits) of different speed read the same
    /// thing. On `lake_churn` a fifth of the ops are writes, so p90 is
    /// the median write.
    fn tail(self) -> f64 {
        match self {
            Self::ServeCold | Self::ServeHot => 0.99,
            Self::ClusterCold => 0.95,
            Self::LakeChurn => 0.90,
        }
    }
}

pub struct RunArgs {
    pub workload: Workload,
    /// Draws the lake; `--seed` draws the traffic over it.
    pub lake_seed: u64,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

/// Run one workload. `Err` means the verify pass failed (or the system
/// could not be set up): nothing was measured, nothing may be printed.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.traced {
        alloc::enable();
    }
    let phase = Instant::now();
    let lake = Lake::generate(args.lake_seed, args.seed, &args.sizes);
    eprintln!(
        "ledger: lake of {} corpus columns and {} pool columns generated in {:.1} s",
        lake.corpus.len(),
        lake.pool.len(),
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();
    let truths = ground_truth(&lake, args.sizes.truth_queries);
    eprintln!(
        "ledger: ground truth in {:.1} s",
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();
    let tmp = TempRoot::new(args.workload.name())?;
    let (running, setups) = set_up_repeatedly(
        args.workload.topology(),
        args.workload.cache(&args.sizes),
        &lake,
        &args.sizes,
        &tmp,
    )?;
    eprintln!(
        "ledger: {} set-ups in {:.1} s; each (s): {:.3?}; build/pack/boot of the last (ms): {:.0}/{:.0}/{:.0}",
        setups.len(),
        phase.elapsed().as_secs_f64(),
        setups.iter().map(|s| s.total_s).collect::<Vec<_>>(),
        setups.last().map_or(0.0, |s| s.build_ms),
        setups.last().map_or(0.0, |s| s.pack_ms),
        setups.last().map_or(0.0, |s| s.boot_ms),
    );
    let mut values = Values::new();
    values.insert("setup_s", median_of(&setups, |s| s.total_s));
    values.insert("store.pack_ms", median_of(&setups, |s| s.pack_ms));
    values.insert("store.shard_ms", median_of(&setups, |s| s.shard_ms));
    values.insert("server.boot_ms", median_of(&setups, |s| s.boot_ms));

    let outcome = match running {
        Running::Direct { index, store } => churn(args, &lake, &truths, index, &store, &mut values),
        served => serve(args, &lake, &truths, served, &mut values),
    };
    let (attempted, failed) = outcome?;
    Ok(RunResult {
        workload: args.workload.name(),
        lake_seed: args.lake_seed,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        attempted,
        failed,
        values,
    })
}

fn median_of(setups: &[SetupTimes], field: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(field).collect::<Vec<_>>())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One stretch of the timed window: the latencies (ms) of the ops that
/// succeeded in it, and how long it lasted.
struct Slice {
    latencies_ms: Vec<f64>,
    wall_s: f64,
}

/// Equal stretches a served window is cut into. At 35 s a stretch is
/// 3.5 s: about 3.5k ops on `serve_cold` (35 beyond its p99), 500 on
/// `cluster_cold` (25 beyond its p95).
const SLICES: usize = 10;

/// `throughput_ops_s`, `latency_p50_ms`, `latency_p99_ms`. Each is read
/// in every slice of the window — ops that succeeded ÷ the slice's wall
/// time, and percentiles of those ops' latencies — and reported as the
/// median over the slices. Every op is in one slice and no slice is
/// picked by its outcome. The sandbox is two virtual cores of a shared
/// host whose speed drops by a fifth for stretches of five to fifteen
/// seconds (README: About the bounds); such a stretch decides the tail
/// of a whole window, and less than half the slices of a window.
fn timing_metrics(values: &mut Values, slices: &[Slice], workload: Workload) {
    let slices: Vec<(Vec<f64>, f64)> = slices
        .iter()
        .map(|s| (sorted(s.latencies_ms.clone()), s.wall_s))
        .collect();
    let ops: Vec<f64> = slices.iter().map(|(lat, _)| lat.len() as f64).collect();
    let typical = median(&ops) as usize;
    // A run too short for the workload's percentile (the smoke tier)
    // reads the highest one a typical slice supports.
    let tail = workload.tail().min(tail_percentile(typical));
    let throughput: Vec<f64> = slices
        .iter()
        .map(|(lat, wall_s)| lat.len() as f64 / wall_s)
        .collect();
    // A slice in which nothing succeeded has no latency to read.
    let latency = |p: f64| -> Vec<f64> {
        let busy = slices.iter().filter(|(lat, _)| !lat.is_empty());
        busy.map(|(lat, _)| percentile(lat, p)).collect()
    };
    eprintln!(
        "ledger: {}: {} ops in {} slices of {:.2} s; latency_p99_ms read at p{} ({} samples \
         beyond it in a slice of {typical}); ops/s by slice: {:.0?}; p{} (ms) by slice: {:.3?}",
        workload.name(),
        ops.iter().sum::<f64>(),
        slices.len(),
        median(&slices.iter().map(|(_, wall_s)| *wall_s).collect::<Vec<_>>()),
        tail * 100.0,
        beyond(typical, tail),
        throughput,
        tail * 100.0,
        latency(tail),
    );
    values.insert("throughput_ops_s", median(&throughput));
    values.insert("latency_p50_ms", median(&latency(0.5)));
    values.insert("latency_p99_ms", median(&latency(tail)));
}

// ---------------------------------------------------------------------
// Served workloads: serve_cold, serve_hot, cluster_cold.
// ---------------------------------------------------------------------

enum Replayer {
    Single(Box<SingleReplay>),
    Cluster(Box<ClusterReplay>),
}

impl Replayer {
    fn restart(&mut self) {
        match self {
            Self::Single(r) => r.restart(),
            Self::Cluster(r) => r.restart(),
        }
    }

    fn replay(&mut self, body: &str, tracer: Option<&mut Tracer>, op: u32) -> (String, Counts) {
        match self {
            Self::Single(r) => r.replay(body, tracer, op),
            Self::Cluster(r) => r.replay(body, tracer, op),
        }
    }
}

/// The `results[].id` of a `/query` response.
fn answer_ids(response: &str) -> Result<Vec<String>, String> {
    let value = json::parse(response)?;
    let obj = value.as_object("response").map_err(|e| e.to_string())?;
    obj.get("results")
        .and_then(|v| v.as_array("results"))
        .map_err(|e| e.to_string())?
        .iter()
        .map(|r| {
            r.as_object("results[]")
                .and_then(|o| o.get("id"))
                .and_then(|v| v.as_str("id"))
                .map(str::to_string)
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn serve(
    args: &RunArgs,
    lake: &Lake,
    truths: &[Truth],
    running: Running,
    values: &mut Values,
) -> Result<(u64, u64), String> {
    let bodies: Vec<String> = lake.pool.iter().map(query_body).collect();
    let (running, replayer, verified) =
        verify_served(args, lake, truths, running, &bodies, values)?;
    let outcome = measure_served(args, lake, &running, replayer, &bodies, &verified, values);
    running.stop();
    outcome
}

/// Byte-identical answers, per pool index, from the verify pass.
type Verified = Vec<Option<Arc<str>>>;

/// The verify pass, which is also the warm-up: every sampled body must
/// come back byte-identical to the in-process replay. `serve_hot`
/// verifies its whole working set, so nothing it times is a miss; the
/// cold workloads restart their front end afterwards, so the window
/// starts with an empty cache (and `measure_served` checks it stays
/// useless).
fn verify_served(
    args: &RunArgs,
    lake: &Lake,
    truths: &[Truth],
    running: Running,
    bodies: &[String],
    values: &mut Values,
) -> Result<(Running, Replayer, Verified), String> {
    let sizes = &args.sizes;
    let hot = args.workload == Workload::ServeHot;
    let cache = args.workload.cache(sizes);
    let addr = running.addr();

    // The replay answers from the same stores the servers loaded.
    let snaps = running
        .stores()
        .into_iter()
        .map(|dir| IndexSnapshot::from_store(dir, THREADS).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut replayer = match running {
        Running::Cluster { .. } => Replayer::Cluster(Box::new(ClusterReplay::new(snaps, cache))),
        _ => {
            let snap = snaps.into_iter().next().expect("one store");
            Replayer::Single(Box::new(SingleReplay::new(snap, cache)))
        }
    };

    let t = Instant::now();
    let sampled = if hot {
        sizes.hot_set
    } else {
        sizes.verify_sample
    };
    let sample = &lake.order[..sampled.min(lake.order.len())];
    let mut verified: Verified = vec![None; bodies.len()];
    let mut client = connect(addr)?;
    for &q in sample {
        let response = client
            .post("/query", &bodies[q])
            .map_err(|e| format!("verify pass: {e}"))?;
        let (expected, _) = replayer.replay(&bodies[q], None, 0);
        if response.status != 200 || response.body != expected {
            return Err(format!(
                "verify pass: {} answered {} and {} bytes, the replay expects {} bytes",
                lake.pool[q].id(),
                response.status,
                response.body.len(),
                expected.len()
            ));
        }
        verified[q] = Some(Arc::from(expected));
    }
    // A front-end thread serves one connection at a time: an idle verify
    // connection would pin one for its whole keep-alive timeout.
    drop(client);
    eprintln!(
        "ledger: verify pass of {} bodies in {:.1} s",
        sample.len(),
        t.elapsed().as_secs_f64()
    );
    let answers = truths
        .iter()
        .map(|t| {
            answer_ids(
                verified[t.query]
                    .as_deref()
                    .expect("truth queries are sampled"),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    values.insert("recall_at_k", recall_at_k(truths, &answers, SERVED_K));
    values.insert("store_bytes_per_sketch", running.store_bytes_per_sketch()?);
    if hot {
        return Ok((running, replayer, verified));
    }
    replayer.restart();
    Ok((running.restart_front(cache)?, replayer, verified))
}

/// The timed window (untraced) or the traced replay of the first ops.
fn measure_served(
    args: &RunArgs,
    lake: &Lake,
    running: &Running,
    mut replayer: Replayer,
    bodies: &[String],
    verified: &Verified,
    values: &mut Values,
) -> Result<(u64, u64), String> {
    let sizes = &args.sizes;
    let addr = running.addr();
    let hot = args.workload == Workload::ServeHot;
    let hot_set = &lake.order[..sizes.hot_set.min(lake.order.len())];
    let sequence = |client: usize, clients: usize| {
        if hot {
            OpSeq::zipf(hot_set, args.seed, client)
        } else {
            OpSeq::round_robin(&lake.order, client, clients)
        }
    };

    if args.traced {
        let traced = TracedServe {
            args,
            lake,
            bodies,
            running,
        };
        return traced.run(&mut replayer, sequence(0, 1), values);
    }

    let clients = args.workload.clients();
    let mut sequences: Vec<OpSeq<'_>> = (0..clients).map(|c| sequence(c, clients)).collect();
    // Hot means the working set fits the cache; cold means every
    // caller's cycle is at least twice the cache. Both by construction,
    // not by how fast anyone runs.
    let cache = args.workload.cache(sizes);
    for seq in &sequences {
        let as_built = if hot {
            seq.cycle_len() <= cache
        } else {
            seq.cycle_len() >= 2 * cache
        };
        if !as_built {
            return Err(format!(
                "{}: a caller cycles through {} bodies, the cache holds {cache}",
                args.workload.name(),
                seq.cycle_len()
            ));
        }
    }

    let before = front_counters(addr)?;
    let drive = drive_clients(
        addr,
        bodies,
        verified,
        &mut sequences,
        Duration::from_secs_f64(args.seconds),
        sizes.op_cap,
    );
    let after = front_counters(addr)?;
    // An op that took the other path — a hit on a cold workload, a miss
    // on the hot one — did not do the work this workload stands for: it
    // is a failed op, whatever it answered.
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    let off_path = if hot { misses } else { hits };
    if off_path > 0 {
        eprintln!(
            "ledger: {}: {hits} cache hits and {misses} misses in the timed window; \
             {off_path} ops counted as failed",
            args.workload.name()
        );
    }
    timing_metrics(values, &drive.slices, args.workload);
    Ok((
        drive.attempted,
        (drive.failed + off_path).min(drive.attempted),
    ))
}

struct Drive {
    /// The window from the common start to the last reply, cut into
    /// [`SLICES`] equal stretches; an op is in the slice it ended in.
    slices: Vec<Slice>,
    attempted: u64,
    failed: u64,
}

/// What one client did in the window; times are seconds since the
/// clock all clients share.
struct Caller {
    begin_s: f64,
    end_s: f64,
    /// (end, latency in ms) of every op that succeeded.
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
}

/// The timed closed loop: one thread per client, each posting its own
/// sequence over one keep-alive connection until the deadline. An I/O
/// error, a non-200 or a body that differs from the verified bytes is
/// counted as a failed op and the run goes on (after an I/O error, on a
/// new connection).
fn drive_clients(
    addr: SocketAddr,
    bodies: &[String],
    verified: &[Option<Arc<str>>],
    sequences: &mut [OpSeq<'_>],
    window: Duration,
    op_cap: Option<usize>,
) -> Drive {
    let barrier = Barrier::new(sequences.len());
    let barrier = &barrier;
    // One clock for every client: an op's end is seconds since `epoch`.
    let epoch = Instant::now();
    let callers: Vec<Caller> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter_mut()
            .map(|seq| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).ok();
                    let mut done = Vec::new();
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let begin = epoch.elapsed();
                    let deadline = begin + window;
                    let mut now = begin;
                    while now < deadline && op_cap.is_none_or(|cap| attempted < cap as u64) {
                        let q = seq.next().expect("op sequences are endless");
                        attempted += 1;
                        if client.is_none() {
                            client = HttpClient::connect(addr).ok();
                        }
                        let Some(conn) = client.as_mut() else {
                            failed += 1;
                            std::thread::sleep(Duration::from_millis(1));
                            now = epoch.elapsed();
                            continue;
                        };
                        let sent = epoch.elapsed();
                        let reply = conn.post("/query", &bodies[q]);
                        now = epoch.elapsed();
                        match reply {
                            Ok(response) => {
                                let matches = verified[q]
                                    .as_deref()
                                    .is_none_or(|expected| expected == response.body);
                                if response.status == 200 && matches {
                                    done.push((
                                        now.as_secs_f64(),
                                        (now - sent).as_secs_f64() * 1e3,
                                    ));
                                } else {
                                    failed += 1;
                                }
                            }
                            Err(_) => {
                                failed += 1;
                                client = None;
                            }
                        }
                    }
                    Caller {
                        begin_s: begin.as_secs_f64(),
                        end_s: now.as_secs_f64(),
                        done,
                        attempted,
                        failed,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let start = callers
        .iter()
        .map(|c| c.begin_s)
        .fold(f64::INFINITY, f64::min);
    let end = callers.iter().map(|c| c.end_s).fold(start, f64::max);
    let slice_s = (end - start) / SLICES as f64;
    let mut drive = Drive {
        slices: (0..SLICES)
            .map(|_| Slice {
                latencies_ms: Vec::new(),
                wall_s: slice_s,
            })
            .collect(),
        attempted: 0,
        failed: 0,
    };
    for caller in callers {
        for (at, took_ms) in caller.done {
            let slice = (((at - start) / slice_s) as usize).min(SLICES - 1);
            drive.slices[slice].latencies_ms.push(took_ms);
        }
        drive.attempted += caller.attempted;
        drive.failed += caller.failed;
    }
    drive
}

// ---------------------------------------------------------------------
// Traced runs: per-layer numbers from the ledger's own spans.
// ---------------------------------------------------------------------

/// Per span name, per op: the summed self time (ns) of that name's
/// spans in that op.
type OpSums = BTreeMap<&'static str, BTreeMap<u32, u64>>;

fn per_op_sums(spans: &[Span]) -> OpSums {
    let mut sums = OpSums::new();
    for (span, self_ns) in spans.iter().zip(spans::self_times(spans)) {
        *sums
            .entry(span.name)
            .or_default()
            .entry(span.op_id)
            .or_default() += self_ns;
    }
    sums
}

/// Median over the ops in which `name` occurs, in microseconds.
fn median_us(sums: &OpSums, name: &str) -> f64 {
    sums.get(name).map_or(0.0, |ops| {
        median(&ops.values().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
    })
}

/// Median over ops of `ns(name) ÷ divisor(op)`, in microseconds; ops
/// whose divisor is 0 are skipped.
fn median_us_per(sums: &OpSums, name: &str, divisor: impl Fn(u32) -> usize) -> f64 {
    sums.get(name).map_or(0.0, |ops| {
        median(
            &ops.iter()
                .filter(|(op, _)| divisor(**op) > 0)
                .map(|(op, &ns)| ns as f64 / 1e3 / divisor(*op) as f64)
                .collect::<Vec<_>>(),
        )
    })
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    if n == 0 {
        0.0
    } else {
        values.sum::<f64>() / n as f64
    }
}

/// What the counting allocator saw around each traced op.
#[derive(Default)]
struct AllocLog {
    allocs: Vec<f64>,
    bytes: Vec<f64>,
}

impl AllocLog {
    /// Run one op, noting the allocations (of every thread) during it.
    fn around<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let before = alloc::totals();
        let out = op();
        let after = alloc::totals();
        self.allocs.push((after.0 - before.0) as f64);
        self.bytes.push((after.1 - before.1) as f64);
        out
    }

    /// The `process.*` allocation metrics, at the end of the traced ops.
    fn report(self, values: &mut Values) {
        values.insert("process.traced_ops", self.allocs.len() as f64);
        values.insert("process.allocs_per_op", mean(self.allocs.into_iter()));
        values.insert("process.alloc_bytes_per_op", mean(self.bytes.into_iter()));
        values.insert(
            "process.live_heap_mb",
            alloc::live_bytes() as f64 / (1 << 20) as f64,
        );
    }
}

/// Workload-independent micro-measurements on the lake's own columns:
/// the hash pair every key goes through, and one sketch build.
fn measure_build_layers(lake: &Lake, values: &mut Values) {
    let sample = &lake.corpus[..lake.corpus.len().min(64)];
    let hasher = TupleHasher::default();
    let keys: usize = sample.iter().map(|p| p.keys.len()).sum();
    let t = Instant::now();
    let mut acc = 0.0;
    for pair in sample {
        for key in &pair.keys {
            acc += hasher.unit_hash(hasher.hash_bytes(key.as_bytes()));
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    values.insert("hashing.key_hash_ns_per_key", ns / keys.max(1) as f64);

    let builder = SketchBuilder::new(sketch_config());
    let per_build: Vec<f64> = sample
        .iter()
        .map(|pair| {
            let t = Instant::now();
            std::hint::black_box(builder.build(pair));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.insert("core.build_us_per_sketch", median(&per_build));
}

/// `store.load_ms` and `index.load_ms`: `read_corpus` and
/// `SketchIndex::from_store` over the served store, three times each,
/// median — the first call alone would mostly time first-touch page
/// faults.
fn measure_load_layers(store: &std::path::Path, values: &mut Values) -> Result<(), String> {
    let mut read = Vec::new();
    let mut load = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(read_corpus(store, THREADS).map_err(|e| e.to_string())?);
        read.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(SketchIndex::from_store(store, THREADS).map_err(|e| e.to_string())?);
        load.push(ms(t));
    }
    values.insert("store.load_ms", median(&read));
    values.insert("index.load_ms", median(&load));
    Ok(())
}

/// Engine-side layer metrics from the `decompose` spans and counts.
fn engine_layers(sums: &OpSums, counts: &BTreeMap<u32, Counts>, values: &mut Values) {
    let of = |op: u32| counts.get(&op).copied().unwrap_or_default();
    values.insert(
        "core.join_us_per_pair",
        median_us_per(sums, "core.join", |op| of(op).candidates),
    );
    values.insert(
        "stats.estimate_us_per_call",
        median_us_per(sums, "stats.estimate", |op| of(op).expensive_calls),
    );
    values.insert(
        "stats.cheap_estimate_us_per_call",
        median_us_per(sums, "stats.cheap_estimate", |op| of(op).cheap_calls),
    );
    values.insert(
        "ranking.score_us_per_query",
        median_us(sums, "ranking.score"),
    );
    values.insert(
        "index.retrieve_us_per_query",
        median_us(sums, "index.retrieve"),
    );
    values.insert(
        "index.execute_us_per_query",
        median_us(sums, "index.execute"),
    );
    let queries: Vec<Counts> = counts
        .values()
        .filter(|c| c.candidates > 0)
        .copied()
        .collect();
    values.insert(
        "core.join_sample_rows",
        mean(
            queries
                .iter()
                .map(|c| c.join_rows as f64 / c.candidates as f64),
        ),
    );
    values.insert(
        "index.candidates_per_query",
        mean(queries.iter().map(|c| c.candidates as f64)),
    );
}

fn write_trace(workload: Workload, tracer: &Tracer) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, spans::to_json(&tracer.spans))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The `cache_hits` / `cache_misses` / evictions a front end reports
/// over HTTP, like any other client reads them.
fn cache_counters(client: &mut HttpClient) -> Result<(u64, u64, u64), String> {
    let stats = client.get("/stats").map_err(|e| e.to_string())?.body;
    let metrics = client.get("/metrics").map_err(|e| e.to_string())?.body;
    let evictions = metrics
        .lines()
        .find_map(|l| l.strip_prefix("sketch_cache_evictions_total "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no sketch_cache_evictions_total in /metrics")?;
    Ok((
        api::extract_u64(&stats, "cache_hits")?,
        api::extract_u64(&stats, "cache_misses")?,
        evictions,
    ))
}

/// The same, over a connection of its own that is closed again: a
/// front-end thread serves one connection at a time, so this is called
/// only while no client is connected.
fn front_counters(addr: SocketAddr) -> Result<(u64, u64, u64), String> {
    cache_counters(&mut connect(addr)?)
}

struct TracedServe<'a> {
    args: &'a RunArgs,
    lake: &'a Lake,
    bodies: &'a [String],
    running: &'a Running,
}

impl TracedServe<'_> {
    fn run(
        &self,
        replayer: &mut Replayer,
        mut seq: OpSeq<'_>,
        values: &mut Values,
    ) -> Result<(u64, u64), String> {
        let ops = self.args.sizes.traced_ops;
        let mut tracer = Tracer::new();
        let mut counts: BTreeMap<u32, Counts> = BTreeMap::new();
        let mut allocations = AllocLog::default();
        let mut op_ns = Vec::with_capacity(ops);
        let mut failed = 0u64;
        let addr = self.running.addr();
        let mut client = connect(addr)?;
        // One worker (cluster only), for the scatter round-trip probe.
        let mut probe = match self.running {
            Running::Cluster { workers, .. } => Some(connect(workers[0].addr())?),
            _ => None,
        };
        let before = cache_counters(&mut client)?;

        for op in 0..ops as u32 {
            let body = &self.bodies[seq.next().expect("op sequences are endless")];
            // The caller-visible call, under the root span `op`.
            let response = allocations.around(|| {
                let root = tracer.begin("op", None, op);
                let response = client.post("/query", body);
                op_ns.push(tracer.end(root));
                response
            });

            // The same op again, in-process, one span per stage.
            let (expected, op_counts) = replayer.replay(body, Some(&mut tracer), op);
            counts.insert(op, op_counts);
            match response {
                Ok(r) if r.status == 200 && r.body == expected => {}
                Ok(_) => failed += 1,
                Err(_) => {
                    failed += 1;
                    client = connect(addr)?;
                }
            }
            // Straight to one worker: what the coordinator waits for,
            // per scatter phase, without the coordinator.
            if let (Some(probe), Replayer::Cluster(cluster)) = (probe.as_mut(), &*replayer) {
                for (path, wire) in cluster.first_worker_wires() {
                    let root = tracer.begin("server.coordinator.scatter_rtt", None, op);
                    let reply = probe.post(path, wire);
                    tracer.end(root);
                    if !reply.is_ok_and(|r| r.status == 200) {
                        failed += 1;
                    }
                }
            }
        }
        allocations.report(values);
        let after = cache_counters(&mut client)?;

        let sums = per_op_sums(&tracer.spans);
        for (metric, span) in [
            ("server.http.read_us", "server.http.read"),
            ("server.http.write_us", "server.http.write"),
            ("server.api.parse_us", "server.api.parse"),
            ("server.api.build_query_us", "server.api.build_query"),
            ("server.api.render_us", "server.api.render"),
            ("server.cache.fingerprint_us", "server.cache.fingerprint"),
            ("server.cache.get_us", "server.cache.get"),
            ("server.cache.put_us", "server.cache.put"),
            (
                "server.coordinator.wire_render_us",
                "server.coordinator.wire_render",
            ),
            (
                "server.coordinator.wire_parse_us",
                "server.coordinator.wire_parse",
            ),
            (
                "server.coordinator.scatter_rtt_us",
                "server.coordinator.scatter_rtt",
            ),
            ("index.merge_us_per_query", "index.merge"),
            ("index.reports_us_per_query", "index.reports"),
        ] {
            values.insert(metric, median_us(&sums, span));
        }
        // Shards answer in parallel: report one shard's call, not the sum.
        let shards = self.running.stores().len();
        values.insert(
            "index.shard_candidates_us",
            median_us_per(&sums, "index.shard_candidates", |_| shards),
        );
        engine_layers(&sums, &counts, values);
        let all = || counts.values();
        values.insert(
            "index.engine_overhead_us",
            median(
                &all()
                    .filter(|c| c.execute_ns > 0)
                    .map(|c| (c.execute_ns as f64 - c.parts_ns as f64) / 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        // Served queries run the requested estimator on every admitted
        // candidate: no cheap pass, nothing pruned.
        values.insert(
            "stats.expensive_calls_per_query",
            mean(all().map(|c| c.expensive_calls as f64)),
        );
        values.insert(
            "server.api.request_bytes",
            mean(all().map(|c| c.request_bytes as f64)),
        );
        values.insert(
            "server.api.response_bytes",
            mean(all().map(|c| c.response_bytes as f64)),
        );
        values.insert(
            "server.coordinator.wire_bytes_per_query",
            mean(all().map(|c| c.wire_bytes as f64)),
        );
        values.insert(
            "server.coordinator.shipped_reports_per_query",
            mean(all().map(|c| c.shipped as f64)),
        );
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        values.insert(
            "server.cache.hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        values.insert("server.cache.evictions", (after.2 - before.2) as f64);

        let op_us: Vec<f64> = op_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let critical_us: Vec<f64> = all().map(|c| c.critical_ns as f64 / 1e3).collect();
        values.insert("process.op_us", median(&op_us));
        values.insert("process.replay_us", median(&critical_us));
        values.insert("server.transport_us", median(&op_us) - median(&critical_us));
        values.insert(
            "process.replay_gap_frac",
            median(
                &op_us
                    .iter()
                    .zip(&critical_us)
                    .map(|(op, critical)| (op - critical) / op)
                    .collect::<Vec<_>>(),
            ),
        );
        if self.args.workload == Workload::ServeCold {
            values.insert(
                "obs.trace_overhead_frac",
                self.trace_overhead(&mut client, &mut seq, &mut failed)?,
            );
        }
        measure_load_layers(self.running.stores()[0], values)?;
        measure_build_layers(self.lake, values);
        write_trace(self.args.workload, &tracer)?;
        Ok((ops as u64, failed))
    }

    /// Cache-missing bodies alternately plain and with `"trace":true`:
    /// the p50 ratio minus one is what the product's own tracing costs
    /// a request that asks for it.
    fn trace_overhead(
        &self,
        client: &mut HttpClient,
        seq: &mut OpSeq<'_>,
        failed: &mut u64,
    ) -> Result<f64, String> {
        let pairs = (self.args.sizes.traced_ops / 4).max(8);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for i in 0..2 * pairs {
            let body = &self.bodies[seq.next().expect("op sequences are endless")];
            let with_trace = i % 2 == 1;
            let sent = if with_trace {
                traced_body(body)
            } else {
                body.clone()
            };
            let t = Instant::now();
            let response = client.post("/query", &sent).map_err(|e| e.to_string())?;
            let took = ms(t);
            if response.status != 200 || response.body.contains("\"trace\":{") != with_trace {
                *failed += 1;
            }
            if with_trace { &mut traced } else { &mut plain }.push(took);
        }
        Ok(median(&traced) / median(&plain) - 1.0)
    }
}

// ---------------------------------------------------------------------
// lake_churn: reads beside writes, straight on the index and the store.
// ---------------------------------------------------------------------

/// A robust read: PM1 bootstrap estimates, CI-penalized ranking, the
/// two-pass planner deciding where the bootstrap is spent.
fn churn_options(plan: PlanMode) -> QueryOptions {
    QueryOptions {
        overlap_candidates: 12,
        k: 5,
        estimator: CorrelationEstimator::Pm1Bootstrap { seed: 0x5eed },
        scorer: Scorer::S3,
        plan,
        threads: 1,
        ..QueryOptions::default()
    }
}

/// Reads per write; columns per append or remove; writes per compaction.
const READS_PER_WRITE: usize = 4;
const WRITE_BATCH: usize = 16;
const WRITES_PER_COMPACT: usize = 10;
/// Pool columns (the permutation's tail) set aside to be appended, so
/// no read ever queries a column that is in the lake.
const APPEND_RESERVE: usize = 512;

/// Ops in one slice of the timed window: two compaction cycles, so
/// every slice holds the same mix — 80 reads, 18 plain writes, 2
/// compacting ones — and ten ops lie beyond its p90.
const SLICE_OPS: usize = 2 * WRITES_PER_COMPACT * (READS_PER_WRITE + 1);

const CHURN_PACK: PackOptions = PackOptions {
    shards: 8,
    threads: 1,
};

struct Churn<'a> {
    lake: &'a Lake,
    store: &'a std::path::Path,
    index: SketchIndex,
    builder: SketchBuilder,
    opts: QueryOptions,
    /// Pool indices read round-robin / appended round-robin.
    reads: &'a [usize],
    reserve: &'a [usize],
    next_read: usize,
    next_append: usize,
    /// Ids appended and not yet removed, oldest first.
    appended: std::collections::VecDeque<String>,
    writes: usize,
    tracer: Option<Tracer>,
    /// Per traced op: the plan's own statistics (reads only).
    plans: BTreeMap<u32, PlanStats>,
    kept: Option<(u32, CorrelationSketch)>,
}

impl Churn<'_> {
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.tracer.as_mut().map(|t| t.begin(name, parent, op));
        let out = f(self);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.end(id);
        }
        out
    }

    /// One read: sketch the query column, rank the lake against it.
    fn read(&mut self, op: u32) -> Vec<QueryResult> {
        let q = self.reads[self.next_read % self.reads.len()];
        self.next_read += 1;
        self.span("op", None, op, |s| {
            let root = s.tracer.as_ref().map(|t| t.spans.len() as u32 - 1);
            let pair = &s.lake.pool[q];
            let sketch = s.span("core.build", root, op, |s| s.builder.build(pair));
            let (results, plan) = s.span("index.execute", root, op, |s| {
                engine::top_k_with_plan_stats(&s.index, &sketch, &s.opts)
            });
            if s.tracer.is_some() {
                s.plans.insert(op, plan);
                s.kept = Some((op, sketch));
            }
            results
        })
    }

    /// One write: append a batch of new columns, or remove the batch
    /// appended before; every `WRITES_PER_COMPACT`-th write also folds
    /// the delta log back into base shards and reloads.
    fn write(&mut self, op: u32) -> Result<(), String> {
        self.writes += 1;
        let append = self.appended.is_empty();
        self.span("op", None, op, |s| {
            let root = s.tracer.as_ref().map(|t| t.spans.len() as u32 - 1);
            if append {
                let batch: Vec<usize> = (0..WRITE_BATCH)
                    .map(|i| s.reserve[(s.next_append + i) % s.reserve.len()])
                    .collect();
                s.next_append += WRITE_BATCH;
                let sketches: Vec<CorrelationSketch> = s.span("core.build", root, op, |s| {
                    batch
                        .iter()
                        .map(|&q| s.builder.build(&s.lake.pool[q]))
                        .collect()
                });
                s.span("store.append", root, op, |s| {
                    append_corpus(s.store, &sketches, 1)
                })
                .map_err(|e| e.to_string())?;
                s.appended
                    .extend(sketches.iter().map(|k| k.id().to_string()));
            } else {
                let ids: Vec<String> = s.appended.drain(..).collect();
                s.span("store.remove", root, op, |s| {
                    remove_from_corpus(s.store, &ids, 1)
                })
                .map_err(|e| e.to_string())?;
            }
            s.span("index.refresh", root, op, |s| {
                s.index.refresh_from_store(s.store, 1)
            })
            .map_err(|e| e.to_string())?;
            if s.writes % WRITES_PER_COMPACT == 0 {
                s.span("store.compact", root, op, |s| {
                    compact_corpus(s.store, &CHURN_PACK)
                })
                .map_err(|e| e.to_string())?;
                s.index = s
                    .span("index.load", root, op, |s| {
                        SketchIndex::from_store(s.store, 1)
                    })
                    .map_err(|e| e.to_string())?;
                // Every compaction cycle appends the same columns, so
                // cycles are alike and where a run ends does not decide
                // what is on disk.
                s.next_append = 0;
            }
            Ok(())
        })
    }
}

fn churn(
    args: &RunArgs,
    lake: &Lake,
    truths: &[Truth],
    index: SketchIndex,
    store: &std::path::Path,
    values: &mut Values,
) -> Result<(u64, u64), String> {
    let sizes = &args.sizes;
    let opts = churn_options(PlanMode::two_pass());
    let reserve_len = APPEND_RESERVE.min(lake.order.len() / 4).max(WRITE_BATCH);
    let (reads, reserve) = lake.order.split_at(lake.order.len() - reserve_len);
    // A robust read costs tens of milliseconds, so the sample is a
    // quarter of the served workloads' (it still covers the truths).
    let sample = &reads[..(sizes.verify_sample / 4)
        .max(sizes.truth_queries)
        .min(reads.len())];
    let builder = SketchBuilder::new(sketch_config());
    let ask = |index: &SketchIndex, q: usize, opts: &QueryOptions| {
        engine::top_k_with_plan_stats(index, &builder.build(&lake.pool[q]), opts).0
    };

    // Verify pass: the two-pass plan must answer exactly as the
    // exhaustive plan does.
    let mut answers = Vec::with_capacity(truths.len());
    for (i, &q) in sample.iter().enumerate() {
        let planned = ask(&index, q, &opts);
        if planned != ask(&index, q, &churn_options(PlanMode::Exhaustive)) {
            return Err(format!(
                "verify pass: two-pass and exhaustive plans disagree on {}",
                lake.pool[q].id()
            ));
        }
        if i < truths.len() {
            answers.push(planned.into_iter().map(|r| r.id).collect::<Vec<_>>());
        }
    }
    values.insert("recall_at_k", recall_at_k(truths, &answers, opts.k));

    let mut state = Churn {
        lake,
        store,
        index,
        builder: builder.clone(),
        opts,
        reads,
        reserve,
        next_read: sample.len(),
        next_append: 0,
        appended: std::collections::VecDeque::new(),
        writes: 0,
        tracer: args.traced.then(Tracer::new),
        plans: BTreeMap::new(),
        kept: None,
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The slice being filled, when it began, and the full ones.
    let mut latencies = Vec::new();
    let mut slices: Vec<Slice> = Vec::new();
    let mut traced_counts: BTreeMap<u32, Counts> = BTreeMap::new();
    let mut scratch = Scratch::default();
    let mut allocations = AllocLog::default();
    let cap = if args.traced {
        sizes.traced_ops
    } else {
        sizes.op_cap.unwrap_or(usize::MAX)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut slice_began = Instant::now();
    while (args.traced || Instant::now() < deadline) && (attempted as usize) < cap {
        let op = attempted as u32;
        let is_write = attempted as usize % (READS_PER_WRITE + 1) == READS_PER_WRITE;
        attempted += 1;
        let t = Instant::now();
        let outcome = allocations.around(|| {
            if is_write {
                state.write(op)
            } else {
                std::hint::black_box(state.read(op));
                Ok(())
            }
        });
        let took = ms(t);
        match outcome {
            Ok(()) => latencies.push(took),
            Err(e) => {
                eprintln!("ledger: lake_churn write failed: {e}");
                failed += 1;
            }
        }
        if (attempted as usize).is_multiple_of(SLICE_OPS) {
            slices.push(Slice {
                latencies_ms: std::mem::take(&mut latencies),
                wall_s: slice_began.elapsed().as_secs_f64(),
            });
            slice_began = Instant::now();
        }
        // A traced read is taken apart again, stage by stage.
        if let (Some(tracer), Some((kept_op, sketch))) = (state.tracer.as_mut(), state.kept.take())
        {
            let mut counts = Counts::default();
            let parts_ns = decompose(
                tracer,
                kept_op,
                &state.index,
                &sketch,
                &state.opts,
                &mut scratch,
                &mut counts,
            );
            counts.parts_ns = parts_ns;
            traced_counts.insert(kept_op, counts);
        }
    }
    // Ops after the last full slice count as attempted but are in no
    // slice — unless the run was too short to fill even one.
    if slices.is_empty() {
        slices.push(Slice {
            latencies_ms: latencies,
            wall_s: slice_began.elapsed().as_secs_f64(),
        });
    }
    // The clock decides where the window ends; what is on disk is read at
    // the same point of a compaction cycle in every run — the write
    // before a compaction, when the delta log is longest.
    if !args.traced {
        while state.writes % WRITES_PER_COMPACT != WRITES_PER_COMPACT - 1 {
            state.write(u32::MAX)?;
        }
    }
    values.insert("store_bytes_per_sketch", {
        let info = sketch_store::stat_corpus(store).map_err(|e| e.to_string())?;
        info.disk_bytes() as f64 / info.live.max(1) as f64
    });

    // The index kept current through deltas must answer exactly like
    // one rebuilt from the store it tracked.
    let rebuilt = SketchIndex::from_store(store, THREADS).map_err(|e| e.to_string())?;
    for &q in sample {
        if ask(&state.index, q, &state.opts) != ask(&rebuilt, q, &state.opts) {
            return Err(format!(
                "end check: the churned index and a rebuilt one disagree on {}",
                lake.pool[q].id()
            ));
        }
    }

    if let Some(tracer) = &state.tracer {
        churn_layers(tracer, &state.plans, &traced_counts, values);
        allocations.report(values);
        measure_load_layers(store, values)?;
        measure_build_layers(lake, values);
        write_trace(args.workload, tracer)?;
    } else {
        timing_metrics(values, &slices, Workload::LakeChurn);
    }
    Ok((attempted, failed))
}

/// Per-layer numbers of a traced `lake_churn` run. Reads are taken
/// apart by `decompose`; writes are staged by the ledger itself, so
/// their spans are children of `op` directly.
fn churn_layers(
    tracer: &Tracer,
    plans: &BTreeMap<u32, PlanStats>,
    counts: &BTreeMap<u32, Counts>,
    values: &mut Values,
) {
    let sums = per_op_sums(&tracer.spans);
    engine_layers(&sums, counts, values);
    for (metric, span) in [
        ("store.append_ms", "store.append"),
        ("store.remove_ms", "store.remove"),
        ("store.compact_ms", "store.compact"),
        ("index.refresh_ms_per_delta", "index.refresh"),
    ] {
        values.insert(metric, median_us(&sums, span) / 1e3);
    }
    let reads = plans.len().max(1) as f64;
    let total = |f: fn(&PlanStats) -> usize| plans.values().map(f).sum::<usize>() as f64;
    values.insert(
        "stats.expensive_calls_per_query",
        total(|p| p.expensive_invocations) / reads,
    );
    values.insert(
        "stats.cheap_calls_per_query",
        total(|p| p.cheap_invocations) / reads,
    );
    values.insert(
        "index.candidates_per_query",
        total(|p| p.candidates) / reads,
    );
    values.insert(
        "index.plan.pruned_frac",
        total(|p| p.pruned) / total(|p| p.candidates).max(1.0),
    );

    // What a read's `index.execute` is made of, at the plan's own call
    // counts: retrieval, the joins, the cheap pass over every candidate,
    // the requested estimator on the contested band only, scoring.
    let ns = |name: &str, op: u32| {
        sums.get(name)
            .and_then(|m| m.get(&op))
            .copied()
            .unwrap_or(0) as f64
    };
    let mut op_us = Vec::new();
    let mut critical_us = Vec::new();
    let mut overhead_us = Vec::new();
    let mut gaps = Vec::new();
    for span in tracer.spans.iter().filter(|s| s.name == "op") {
        let op = span.op_id;
        let duration = span.duration_ns() as f64;
        let attributed = match (plans.get(&op), counts.get(&op)) {
            (Some(plan), Some(c)) => {
                let per_call = |name: &str, calls: usize| ns(name, op) / calls.max(1) as f64;
                let parts = ns("index.retrieve", op)
                    + ns("core.join", op)
                    + per_call("stats.cheap_estimate", c.cheap_calls)
                        * plan.cheap_invocations as f64
                    + per_call("stats.estimate", c.expensive_calls)
                        * plan.expensive_invocations as f64
                    + ns("ranking.score", op);
                overhead_us.push((ns("index.execute", op) - parts) / 1e3);
                ns("core.build", op) + parts
            }
            // A write: everything but the op's own self time is staged.
            _ => duration - ns("op", op),
        };
        op_us.push(duration / 1e3);
        critical_us.push(attributed / 1e3);
        gaps.push((duration - attributed) / duration);
    }
    values.insert("index.engine_overhead_us", median(&overhead_us));
    values.insert("process.op_us", median(&op_us));
    values.insert("process.replay_us", median(&critical_us));
    values.insert("process.replay_gap_frac", median(&gaps));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_match_the_listed_ones() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, crate::metrics::WORKLOADS);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn per_op_sums_group_self_time_by_name_and_op() {
        let mut tracer = Tracer::new();
        for op in 0..2 {
            let root = tracer.begin("replay", None, op);
            let a = tracer.begin("stage", Some(root), op);
            tracer.end(a);
            let b = tracer.begin("stage", Some(root), op);
            tracer.end(b);
            tracer.end(root);
        }
        let sums = per_op_sums(&tracer.spans);
        assert_eq!(sums["stage"].len(), 2);
        let stage: u64 = tracer
            .spans
            .iter()
            .filter(|s| s.name == "stage" && s.op_id == 0)
            .map(Span::duration_ns)
            .sum();
        assert_eq!(sums["stage"][&0], stage);
        let root = &tracer.spans[0];
        assert_eq!(sums["replay"][&0], root.duration_ns() - stage);
        assert_eq!(median_us(&sums, "absent"), 0.0);
    }

    #[test]
    fn timings_are_medians_over_slices_and_a_slow_slice_does_not_move_them() {
        // 100 ops a second at 1..=100 ms in every slice but one, which
        // is four times slower and holds a quarter of the ops.
        let slice = |ops: usize, factor: f64| Slice {
            latencies_ms: (1..=ops).map(|i| i as f64 * factor).collect(),
            wall_s: 1.0,
        };
        let mut slices: Vec<Slice> = (0..9).map(|_| slice(100, 1.0)).collect();
        slices.push(slice(25, 4.0));
        let mut values = Values::new();
        timing_metrics(&mut values, &slices, Workload::LakeChurn);
        assert_eq!(values["throughput_ops_s"], 100.0);
        assert_eq!(values["latency_p50_ms"], 50.0);
        // p90 on this workload: ten of a slice's hundred beyond it.
        assert_eq!(values["latency_p99_ms"], 90.0);
        // An empty slice counts as no throughput and has no latency.
        let slices = [slice(100, 1.0), slice(0, 1.0), slice(100, 1.0)];
        timing_metrics(&mut values, &slices, Workload::LakeChurn);
        assert_eq!(values["throughput_ops_s"], 100.0);
        assert_eq!(values["latency_p50_ms"], 50.0);
    }

    #[test]
    fn answer_ids_reads_result_ids_in_rank_order() {
        let body = "{\"generation\":0,\"count\":2,\"results\":[{\"id\":\"b/key/v0\",\"doc\":3},{\"id\":\"a/key/v1\",\"doc\":1}]}";
        assert_eq!(answer_ids(body).unwrap(), ["b/key/v0", "a/key/v1"]);
        assert!(answer_ids("{\"error\":\"x\"}").is_err());
    }

    /// The whole benchmark at smoke size: four workloads untraced and
    /// one traced run, every metric present, nothing failed. This is
    /// what keeps the ledger from rotting between performance changes.
    #[test]
    fn smoke_runs_every_workload_and_one_traced_run() {
        let run_one = |workload, traced| {
            run(&RunArgs {
                workload,
                lake_seed: crate::lake::HOLDOUT_SEED,
                seed: 3,
                seconds: 1.5,
                traced,
                sizes: Sizes::smoke(),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
        };
        for workload in Workload::ALL {
            let result = run_one(workload, false);
            assert!(result.failed == 0, "{}", result.table());
            assert!(result.attempted > 0);
            // Panics if an end-to-end metric is missing or not finite.
            let line = result.contract_line();
            assert!(line.contains("\"latency_p50_ms\""), "{line}");
            assert!(result.values["throughput_ops_s"] > 0.0);
            assert!(result.values["recall_at_k"] > 0.0, "{}", result.table());
        }
        // A cold workload whose cache could hold a caller's whole cycle
        // is refused before anything is timed.
        let too_warm = run(&RunArgs {
            workload: Workload::ServeCold,
            lake_seed: crate::lake::HOLDOUT_SEED,
            seed: 3,
            seconds: 1.5,
            traced: false,
            sizes: Sizes {
                cold_cache: 4096,
                ..Sizes::smoke()
            },
        });
        assert!(too_warm.is_err_and(|e| e.contains("the cache holds 4096")));
        let traced = run_one(Workload::ClusterCold, true);
        assert_eq!(traced.failed, 0, "{}", traced.table());
        assert!(traced.values["server.coordinator.wire_bytes_per_query"] > 0.0);
        assert!(traced.values["process.allocs_per_op"] > 0.0);
        assert!(out_dir().join("trace-cluster_cold.json").is_file());
    }
}
