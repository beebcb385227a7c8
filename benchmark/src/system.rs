//! Set-up: from generated column pairs in memory to a system that is
//! ready to answer — sketch build, pack, (partition,) load, boot. This
//! is what `setup_s` times, and the ledger's own boot code for the
//! cluster (`sketch_bench::ShardCluster::boot` leaves worker caches at
//! their default whatever it is asked; see README).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use correlation_sketches::{build_sketches_parallel, SketchConfig};
use sketch_index::SketchIndex;
use sketch_server::{
    start, start_coordinator, CoordinatorConfig, CoordinatorHandle, ServerConfig, ServerHandle,
};
use sketch_store::{pack_corpus, shard_corpus, stat_corpus, PackOptions};

use crate::lake::{Lake, Sizes, SKETCH_SIZE, THREADS};

/// Entries in `serve_hot`'s response cache: the product's default, which
/// its working set fits inside. The cold workloads run with
/// `Sizes::cold_cache`. Every server the ledger boots — the single
/// server, each worker, the coordinator — is given its capacity
/// explicitly, so no topology inherits one by accident.
pub const HOT_CACHE: usize = 1024;

/// No workload mutates a store under a running server, so the manifest
/// and health pollers have nothing to find. Parking them keeps timers
/// out of the traced counts (on the single server even allocations per
/// op repeat exactly).
const POLL_INTERVAL: Duration = Duration::from_secs(3600);

const PACK: PackOptions = PackOptions {
    shards: 8,
    threads: THREADS,
};

pub fn sketch_config() -> SketchConfig {
    SketchConfig::with_size(SKETCH_SIZE)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Which system a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `sketch_server::start` server, two workers.
    Single,
    /// Two worker servers behind a one-thread coordinator.
    Cluster,
    /// No server: a `SketchIndex` over the packed store.
    Direct,
}

/// A system that is up.
pub enum Running {
    Single {
        server: ServerHandle,
        store: PathBuf,
    },
    Cluster {
        coordinator: CoordinatorHandle,
        workers: Vec<ServerHandle>,
        worker_dirs: Vec<PathBuf>,
    },
    Direct {
        index: SketchIndex,
        store: PathBuf,
    },
}

impl Running {
    /// The address callers send queries to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Self::Single { server, .. } => server.addr(),
            Self::Cluster { coordinator, .. } => coordinator.addr(),
            Self::Direct { .. } => unreachable!("lake_churn has no server"),
        }
    }

    /// The stores answers are served from.
    pub fn stores(&self) -> Vec<&Path> {
        match self {
            Self::Single { store, .. } | Self::Direct { store, .. } => vec![store],
            Self::Cluster { worker_dirs, .. } => worker_dirs.iter().map(PathBuf::as_path).collect(),
        }
    }

    /// On-disk bytes per live sketch, summed over the served stores.
    pub fn store_bytes_per_sketch(&self) -> Result<f64, String> {
        let (mut bytes, mut live) = (0u64, 0u64);
        for dir in self.stores() {
            let info = stat_corpus(dir).map_err(|e| e.to_string())?;
            bytes += info.disk_bytes();
            live += info.live;
        }
        Ok(bytes as f64 / live.max(1) as f64)
    }

    /// Replace the front end — the single server, or the coordinator —
    /// with a freshly started one, so that what the verify pass left in
    /// its response cache and parse memo is gone and a cold workload's
    /// timed window starts cold.
    pub fn restart_front(self, cache: usize) -> Result<Self, String> {
        match self {
            Self::Single { server, store } => {
                drop(server.shutdown());
                let server =
                    start(server_config(&store, THREADS, cache)).map_err(|e| e.to_string())?;
                Ok(Self::Single { server, store })
            }
            Self::Cluster {
                coordinator,
                workers,
                worker_dirs,
            } => {
                drop(coordinator.shutdown());
                let coordinator = start_coordinator(coordinator_config(&workers, cache))
                    .map_err(|e| e.to_string())?;
                Ok(Self::Cluster {
                    coordinator,
                    workers,
                    worker_dirs,
                })
            }
            direct @ Self::Direct { .. } => Ok(direct),
        }
    }

    /// Stop every thread this system started, and wait for them.
    pub fn stop(self) {
        match self {
            Self::Single { server, .. } => drop(server.shutdown()),
            Self::Cluster {
                coordinator,
                workers,
                ..
            } => {
                drop(coordinator.shutdown());
                for w in workers {
                    drop(w.shutdown());
                }
            }
            Self::Direct { .. } => {}
        }
    }
}

/// Where one set-up's time went (milliseconds), and its total.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_ms: f64,
    pub pack_ms: f64,
    pub shard_ms: f64,
    /// Store load + index build + thread start, as one call:
    /// `start` / `start_coordinator` / `SketchIndex::from_store`.
    pub boot_ms: f64,
    pub total_s: f64,
}

fn server_config(store: &Path, threads: usize, cache: usize) -> ServerConfig {
    let mut config = ServerConfig::new(store);
    config.threads = threads;
    config.load_threads = THREADS;
    config.cache_capacity = cache;
    config.poll_interval = POLL_INTERVAL;
    config
}

fn coordinator_config(workers: &[ServerHandle], cache: usize) -> CoordinatorConfig {
    let mut config = CoordinatorConfig::new(workers.iter().map(|w| w.addr().to_string()).collect());
    config.threads = 1;
    config.cache_capacity = cache;
    config.poll_interval = POLL_INTERVAL;
    config
}

/// One set-up into the empty directory `dir`; `cache` is the capacity
/// of every response cache in the system.
pub fn set_up(
    topology: Topology,
    cache: usize,
    lake: &Lake,
    dir: &Path,
) -> Result<(Running, SetupTimes), String> {
    let start_all = Instant::now();
    let mut times = SetupTimes::default();
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;

    let t = Instant::now();
    let sketches = build_sketches_parallel(&lake.corpus, sketch_config(), THREADS);
    times.build_ms = ms_since(t);
    let t = Instant::now();
    pack_corpus(&store, &sketches, &PACK).map_err(|e| e.to_string())?;
    times.pack_ms = ms_since(t);
    drop(sketches);

    let running = match topology {
        Topology::Single => {
            let t = Instant::now();
            let server = start(server_config(&store, THREADS, cache)).map_err(|e| e.to_string())?;
            times.boot_ms = ms_since(t);
            Running::Single { server, store }
        }
        Topology::Direct => {
            let t = Instant::now();
            let index = SketchIndex::from_store(&store, THREADS).map_err(|e| e.to_string())?;
            times.boot_ms = ms_since(t);
            Running::Direct { index, store }
        }
        Topology::Cluster => {
            let parts = dir.join("parts");
            let t = Instant::now();
            let manifest = shard_corpus(&store, &parts, 2, THREADS).map_err(|e| e.to_string())?;
            times.shard_ms = ms_since(t);
            let t = Instant::now();
            let mut workers = Vec::new();
            let mut worker_dirs = Vec::new();
            for shard in &manifest.shards {
                let worker_dir = parts.join(&shard.dir);
                // One thread for the coordinator's front-end thread, one
                // for its health poller, one for the ledger's direct
                // scatter probe: a worker serves one connection per
                // thread, and a pinned connection must never read as a
                // dead shard.
                let worker =
                    start(server_config(&worker_dir, 3, cache)).map_err(|e| e.to_string())?;
                workers.push(worker);
                worker_dirs.push(worker_dir);
            }
            let coordinator = start_coordinator(coordinator_config(&workers, cache))
                .map_err(|e| e.to_string())?;
            times.boot_ms = ms_since(t);
            Running::Cluster {
                coordinator,
                workers,
                worker_dirs,
            }
        }
    };
    times.total_s = start_all.elapsed().as_secs_f64();
    Ok((running, times))
}

/// A scratch directory under the benchmark's own `out/`, removed when
/// dropped — also on the error paths.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: everything the ledger writes goes under it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set up `sizes.setup_reps` times into fresh directories, tearing each
/// system down before the next; the last one is returned running.
pub fn set_up_repeatedly(
    topology: Topology,
    cache: usize,
    lake: &Lake,
    sizes: &Sizes,
    tmp: &TempRoot,
) -> Result<(Running, Vec<SetupTimes>), String> {
    let mut all = Vec::with_capacity(sizes.setup_reps);
    for rep in 0..sizes.setup_reps {
        let dir = tmp.path().join(format!("rep-{rep}"));
        let (running, times) = set_up(topology, cache, lake, &dir)?;
        all.push(times);
        if rep + 1 == sizes.setup_reps {
            return Ok((running, all));
        }
        running.stop();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Err("setup_reps must be at least 1".into())
}
