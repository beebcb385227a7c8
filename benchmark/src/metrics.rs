//! Every name the ledger can emit — workloads, end-to-end metrics,
//! per-layer metrics — and the result record a run prints.
//! `BENCHMARK.json` lists the same names; a test holds the two equal.

use std::collections::BTreeMap;

use correlation_sketches::json::{push_f64, push_string};

/// Every workload the ledger runs.
pub const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "cluster_cold", "lake_churn"];

/// The ones `BENCHMARK.json` lists, so that a later change is accepted
/// or rejected by them. `cluster_cold` is not among them: an op of it
/// waits for two workers that need both of the sandbox's two virtual
/// cores at once, so it takes the host's slow stretches in full (a
/// quarter slower when the other workloads are a seventh slower), and
/// no bound the contract allows holds it (README: About the bounds).
#[cfg(test)]
pub const GATED: [&str; 3] = ["serve_cold", "serve_hot", "lake_churn"];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Repeats exactly between two runs of one commit on one seed (a
    /// count taken with one client and no timers), so `compare` checks
    /// it with `==` instead of a tolerance.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system sees. Printed by the untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    timing("setup_s", "s"),
    timing("throughput_ops_s", "ops/s"),
    timing("latency_p50_ms", "ms"),
    timing("latency_p99_ms", "ms"),
    count("recall_at_k", "fraction"),
    timing("store_bytes_per_sketch", "bytes"),
];

/// Single layers, named after the crate or module whose public call is
/// timed. Printed by the traced run; a layer a workload never enters
/// reads 0.
pub const PER_LAYER: [MetricDef; 52] = [
    timing("hashing.key_hash_ns_per_key", "ns"),
    timing("core.build_us_per_sketch", "us"),
    timing("core.join_us_per_pair", "us"),
    count("core.join_sample_rows", "rows"),
    timing("stats.estimate_us_per_call", "us"),
    timing("stats.cheap_estimate_us_per_call", "us"),
    count("stats.expensive_calls_per_query", "count"),
    count("stats.cheap_calls_per_query", "count"),
    count("index.plan.pruned_frac", "fraction"),
    count("index.candidates_per_query", "count"),
    timing("ranking.score_us_per_query", "us"),
    timing("index.retrieve_us_per_query", "us"),
    timing("index.execute_us_per_query", "us"),
    timing("index.engine_overhead_us", "us"),
    timing("index.reports_us_per_query", "us"),
    timing("index.load_ms", "ms"),
    timing("index.refresh_ms_per_delta", "ms"),
    timing("index.shard_candidates_us", "us"),
    timing("index.merge_us_per_query", "us"),
    timing("store.pack_ms", "ms"),
    timing("store.load_ms", "ms"),
    timing("store.shard_ms", "ms"),
    timing("store.append_ms", "ms"),
    timing("store.remove_ms", "ms"),
    timing("store.compact_ms", "ms"),
    timing("server.boot_ms", "ms"),
    timing("server.http.read_us", "us"),
    timing("server.http.write_us", "us"),
    timing("server.api.parse_us", "us"),
    timing("server.api.build_query_us", "us"),
    timing("server.api.render_us", "us"),
    count("server.api.request_bytes", "bytes"),
    count("server.api.response_bytes", "bytes"),
    timing("server.cache.fingerprint_us", "us"),
    timing("server.cache.get_us", "us"),
    timing("server.cache.put_us", "us"),
    count("server.cache.hit_frac", "fraction"),
    count("server.cache.evictions", "count"),
    timing("server.transport_us", "us"),
    timing("server.coordinator.wire_render_us", "us"),
    timing("server.coordinator.wire_parse_us", "us"),
    count("server.coordinator.wire_bytes_per_query", "bytes"),
    count("server.coordinator.shipped_reports_per_query", "count"),
    timing("server.coordinator.scatter_rtt_us", "us"),
    timing("obs.trace_overhead_frac", "fraction"),
    // Counts, but not exact ones on the cluster: how a socket read is
    // chunked decides how often a buffer grows.
    timing("process.allocs_per_op", "count"),
    timing("process.alloc_bytes_per_op", "bytes"),
    timing("process.live_heap_mb", "MB"),
    timing("process.op_us", "us"),
    timing("process.replay_us", "us"),
    timing("process.replay_gap_frac", "fraction"),
    count("process.traced_ops", "count"),
];

/// Metric name → value, filled by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// One run's outcome.
pub struct RunResult {
    pub workload: &'static str,
    pub lake_seed: u64,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// `(def, value)` for every metric this kind of run reports, in
    /// declaration order. A per-layer metric the workload did not fill
    /// is 0; a missing end-to-end metric is a bug in the workload.
    fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs().iter().map(|def| {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => panic!("{} on {} is {v}", def.name, self.workload),
                None if self.traced => 0.0,
                None => panic!("{} not reported on {}", def.name, self.workload),
            };
            (def, value)
        })
    }

    /// `correct` is always true here: a run whose verify pass (or, on
    /// `lake_churn`, end-of-run rebuild check) fails yields no result at
    /// all, because its timings must never be printed.
    fn push_outcome(&self, out: &mut String) {
        out.push_str(&format!(
            "\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        ));
        for (i, (def, value)) in self.rows().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(out, def.name);
            out.push_str(":{\"value\":");
            push_f64(out, value);
            out.push_str(",\"unit\":");
            push_string(out, def.unit);
            out.push('}');
        }
        out.push_str("}}");
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut out = String::from("{");
        self.push_outcome(&mut out);
        out
    }

    /// The same, prefixed with what identifies the run — one line of a
    /// run set under `benchmark/runs/`.
    pub fn record_line(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"lake_seed\":{},\"seed\":{},\"seconds\":{:?},\"trace\":{},",
            self.workload,
            self.lake_seed,
            self.seed,
            self.seconds,
            u8::from(self.traced)
        );
        self.push_outcome(&mut out);
        out
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} lake={:#x} seed={:#x} {} — verified, attempted {} failed {}\n",
            self.workload,
            self.lake_seed,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for (def, value) in self.rows() {
            out.push_str(&format!("  {:<46} {value:>16.4} {}\n", def.name, def.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.unit.len() <= 16, "{}", def.unit);
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
        }
    }

    /// The metric names (and units) the ledger can emit are the ones
    /// `BENCHMARK.json` lists — no more, no fewer — and its workloads
    /// are the gated ones.
    #[test]
    fn names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let value = json::parse(&text).expect("BENCHMARK.json parses");
        let obj = value.as_object("BENCHMARK.json").unwrap();
        let listed = |field: &str, with_unit: bool| -> Vec<(String, String)> {
            obj.get(field)
                .and_then(|v| v.as_array(field))
                .unwrap()
                .iter()
                .map(|entry| {
                    let o = entry.as_object(field).unwrap();
                    let name = o.get("name").and_then(|v| v.as_str("name")).unwrap();
                    let unit = if with_unit {
                        o.get("unit").and_then(|v| v.as_str("unit")).unwrap()
                    } else {
                        ""
                    };
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", true), ours(&END_TO_END));
        assert_eq!(listed("per_layer", true), ours(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads", false)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, GATED);
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        for def in &END_TO_END {
            values.insert(def.name, 1.5);
        }
        let result = RunResult {
            workload: "serve_cold",
            lake_seed: 1,
            seed: 7,
            seconds: 1.0,
            traced: false,
            attempted: 3,
            failed: 0,
            values,
        };
        let parsed = json::parse(&result.contract_line()).unwrap();
        let json::Value::Obj(fields) = parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(result
            .record_line()
            .starts_with("{\"workload\":\"serve_cold\",\"lake_seed\":1,\"seed\":7,"));
        assert!(result.table().contains("latency_p99_ms"));
    }
}
