//! `ledger compare A B`: judge run set B against run set A (the base)
//! by the bounds `BENCHMARK.json` fixes. A run set is a file of
//! `record_line`s, one run per line.

use std::collections::BTreeMap;

use correlation_sketches::json::{self, Value};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::summary::{quartiles, spread};

/// `(workload, metric)` → `(seed, value)` per run, for one kind of run.
type Table = BTreeMap<(String, String), Vec<(u64, f64)>>;

struct RunSet {
    untraced: Table,
    traced: Table,
    failed: u64,
}

fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet {
        untraced: Table::new(),
        traced: Table::new(),
        failed: 0,
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", n + 1);
        let value = json::parse(line).map_err(at)?;
        let obj = value.as_object("run").map_err(|e| at(e.to_string()))?;
        let field = |name: &str| obj.get(name).map_err(|e| at(e.to_string()));
        let workload = field("workload")?
            .as_str("workload")
            .map_err(|e| at(e.to_string()))?;
        let seed = field("seed")?
            .as_u64("seed")
            .map_err(|e| at(e.to_string()))?;
        let traced = field("trace")?
            .as_u64("trace")
            .map_err(|e| at(e.to_string()))?
            == 1;
        set.failed += field("failed")?
            .as_u64("failed")
            .map_err(|e| at(e.to_string()))?;
        let Value::Obj(metrics) = field("metrics")? else {
            return Err(at("metrics is not an object".into()));
        };
        let table = if traced {
            &mut set.traced
        } else {
            &mut set.untraced
        };
        for (name, entry) in metrics {
            let v = entry
                .as_object(name)
                .and_then(|o| o.get("value"))
                .and_then(|v| v.as_f64("value"))
                .map_err(|e| at(e.to_string()))?;
            table
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, v));
        }
    }
    Ok(set)
}

/// Direction and bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let value = json::parse(benchmark_json)?;
    let obj = value
        .as_object("BENCHMARK.json")
        .map_err(|e| e.to_string())?;
    obj.get("end_to_end")
        .and_then(|v| v.as_array("end_to_end"))
        .map_err(|e| e.to_string())?
        .iter()
        .map(|entry| {
            let o = entry.as_object("end_to_end[]")?;
            Ok((
                o.get("name")?.as_str("name")?.to_string(),
                (
                    o.get("better")?.as_str("better")? == "higher",
                    o.get("bound")?.as_f64("bound")?,
                ),
            ))
        })
        .collect::<Result<_, correlation_sketches::SketchError>>()
        .map_err(|e| e.to_string())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Nothing can be said: a side has fewer than two runs, the base is
    /// 0, or the run-to-run spread of either side is wider than the
    /// bound, so the medians cannot tell "unchanged" from "worse".
    Unresolved,
}

/// Judge a timing: B's median against A's, under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    // A ratio needs a base.
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    if widest > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Judge an exact metric seed by seed. With a direction (an end-to-end
/// metric), B regresses when it is worse on any seed both sets ran;
/// without one (a traced count), when it differs at all. Sets that share
/// no seed say nothing.
pub fn judge_exact(a: &[(u64, f64)], b: &[(u64, f64)], higher_is_better: Option<bool>) -> Verdict {
    let mut shared = 0;
    for (seed, va) in a {
        for (_, vb) in b.iter().filter(|(s, _)| s == seed) {
            shared += 1;
            let worse = match higher_is_better {
                Some(true) => vb < va,
                Some(false) => vb > va,
                None => vb != va,
            };
            if worse {
                return Verdict::Regressed;
            }
        }
    }
    if shared == 0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, m, q3)) => format!(
            "{m:.4} [{q1:.4}, {q3:.4}] ±{:.1}%",
            spread(values).unwrap_or(0.0) * 100.0
        ),
        None => values
            .first()
            .map_or("— (no run)".into(), |v| format!("{v:.4} (1 run)")),
    }
}

/// One row per (workload, metric). End-to-end rows (`bounds` given) are
/// all judged: a pair either side lacks is `unresolved`, never skipped —
/// a missing workload must not read as "nothing regressed". Per-layer
/// rows appear when either side has a traced run of the workload; only
/// the exact counts among them are judged.
fn rows(
    out: &mut String,
    a: &Table,
    b: &Table,
    defs: &[MetricDef],
    bounds: Option<&BTreeMap<String, (bool, f64)>>,
    tally: &mut (usize, usize),
) {
    let none = Vec::new();
    for workload in WORKLOADS {
        for def in defs {
            let key = (workload.to_string(), def.name.to_string());
            let (ra, rb) = (a.get(&key).unwrap_or(&none), b.get(&key).unwrap_or(&none));
            if bounds.is_none() && ra.is_empty() && rb.is_empty() {
                continue;
            }
            let va: Vec<f64> = ra.iter().map(|(_, v)| *v).collect();
            let vb: Vec<f64> = rb.iter().map(|(_, v)| *v).collect();
            let (ma, mb) = (crate::summary::median(&va), crate::summary::median(&vb));
            let bound = bounds.map(|b| b.get(def.name).copied());
            let verdict = match bound {
                // Not listed in BENCHMARK.json: there is no bound to judge by.
                Some(None) => Some(Verdict::Unresolved),
                Some(Some((higher, _))) if def.exact => Some(judge_exact(ra, rb, Some(higher))),
                Some(Some((higher, bound))) => Some(judge(&va, &vb, higher, bound)),
                None if def.exact => Some(judge_exact(ra, rb, None)),
                None => None,
            };
            match verdict {
                Some(Verdict::Regressed) => tally.0 += 1,
                Some(Verdict::Unresolved) => tally.1 += 1,
                _ => {}
            }
            let ratio = if va.is_empty() || vb.is_empty() || ma == 0.0 {
                "—".to_string()
            } else {
                format!("{:.4}x of A", mb / ma)
            };
            let verdict = match verdict {
                Some(Verdict::Ok) if def.exact => "ok (==)",
                Some(Verdict::Ok) => "ok",
                Some(Verdict::Regressed) if def.exact => "regressed (differs)",
                Some(Verdict::Regressed) => "regressed",
                Some(Verdict::Unresolved) => "unresolved",
                None => "",
            };
            out.push_str(&format!(
                "{workload:<13} {:<46} A {:<42} B {:<42} {ratio:<16} {verdict}\n",
                def.name,
                summary(&va),
                summary(&vb),
            ));
        }
    }
}

/// The comparison report, and whether any row regressed or is unresolved.
pub fn compare(a_text: &str, b_text: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let a = parse_run_set(a_text).map_err(|e| format!("A: {e}"))?;
    let b = parse_run_set(b_text).map_err(|e| format!("B: {e}"))?;
    let bounds = bounds(benchmark_json)?;
    let mut out = String::from(
        "median [q1, q3] ±spread (q3 − q1 as a share of the median) per (workload, metric);\n\
         ratios are B's median as a multiple of A's\n\n",
    );
    let mut tally = (0, 0);
    out.push_str("end-to-end (untraced runs)\n");
    rows(
        &mut out,
        &a.untraced,
        &b.untraced,
        &END_TO_END,
        Some(&bounds),
        &mut tally,
    );
    out.push_str("\nper-layer (traced runs; timings are context, counts must repeat)\n");
    rows(&mut out, &a.traced, &b.traced, &PER_LAYER, None, &mut tally);
    out.push_str(&format!(
        "\nfailed ops: A {} B {}; rows regressed {}, unresolved {}\n",
        a.failed, b.failed, tally.0, tally.1
    ));
    let bad = tally.0 + tally.1 > 0 || b.failed > a.failed;
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let same: Vec<f64> = base.iter().map(|v| v * 1.03).collect();
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(judge(&base, &same, false, 0.1), Verdict::Ok);
        assert_eq!(judge(&base, &slow, false, 0.1), Verdict::Regressed);
        // Higher is better: 1.2x is an improvement, 1/1.2 a regression.
        assert_eq!(judge(&base, &slow, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&slow, &base, true, 0.1), Verdict::Regressed);
        assert_eq!(judge(&base, &noisy, false, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&[1.0], &[1.0], false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_per_seed() {
        let a = [(1, 0.5), (2, 0.75)];
        assert_eq!(judge_exact(&a, &[(2, 0.75), (1, 0.5)], None), Verdict::Ok);
        let off = [(1, 0.5), (2, 0.7500001)];
        assert_eq!(judge_exact(&a, &off, None), Verdict::Regressed);
        // With a direction only "worse" regresses.
        assert_eq!(judge_exact(&a, &off, Some(true)), Verdict::Ok);
        assert_eq!(judge_exact(&a, &off, Some(false)), Verdict::Regressed);
        // Sets that share no seed say nothing — that is not "ok".
        assert_eq!(judge_exact(&a, &[(3, 9.0)], None), Verdict::Unresolved);
        assert_eq!(judge_exact(&a, &[], Some(true)), Verdict::Unresolved);
    }

    #[test]
    fn a_base_of_zero_is_unresolved() {
        assert_eq!(
            judge(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], false, 0.1),
            Verdict::Unresolved
        );
    }

    /// A `BENCHMARK.json` with every end-to-end metric, bounds of a tenth.
    fn bench() -> String {
        let entries: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let better = match d.name {
                    "throughput_ops_s" | "recall_at_k" => "higher",
                    _ => "lower",
                };
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":0.1}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{\"end_to_end\":[{}]}}", entries.join(","))
    }

    /// One untraced run: `p50` for `latency_p50_ms`, and every other
    /// metric the same in every set.
    fn line(workload: &str, seed: u64, p50: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let value = match d.name {
                    "latency_p50_ms" => p50,
                    _ if d.exact => 0.5,
                    _ => 7.0 + seed as f64 * 0.01,
                };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":1.0,\"trace\":0,\
             \"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{{}}}}}\n",
            metrics.join(",")
        )
    }

    /// Four runs of every workload.
    fn full_set(p50: f64) -> String {
        WORKLOADS
            .iter()
            .flat_map(|w| (0..4).map(move |s| line(w, s, p50 + s as f64 * 0.01)))
            .collect()
    }

    #[test]
    fn compare_reads_run_sets_and_reports_each_row() {
        let (a, b) = (full_set(1.0), full_set(2.0));
        let (report, bad) = compare(&a, &a, &bench()).unwrap();
        assert!(!bad, "{report}");
        assert!(report.contains("1.0000x of A"), "{report}");
        assert!(report.contains("ok (==)"), "{report}");
        // Twice the p50 on each of the four workloads.
        let (report, bad) = compare(&a, &b, &bench()).unwrap();
        assert!(bad);
        assert!(
            report.contains("rows regressed 4, unresolved 0"),
            "{report}"
        );
        assert!(compare("not json", &a, &bench()).is_err());
    }

    #[test]
    fn nothing_to_compare_is_not_a_pass() {
        let a = full_set(1.0);
        let all = WORKLOADS.len() * END_TO_END.len();
        let (report, bad) = compare(&a, "", &bench()).unwrap();
        assert!(bad, "{report}");
        assert!(
            report.contains(&format!("rows regressed 0, unresolved {all}")),
            "{report}"
        );
        // A set B without one workload: that workload's rows are unresolved.
        let partial: String = a
            .lines()
            .filter(|l| !l.contains("lake_churn"))
            .map(|l| format!("{l}\n"))
            .collect();
        let (report, bad) = compare(&a, &partial, &bench()).unwrap();
        assert!(bad);
        assert!(
            report.contains(&format!("unresolved {}", END_TO_END.len())),
            "{report}"
        );
        // A metric BENCHMARK.json does not list has no bound to be judged by.
        let (report, bad) = compare(&a, &a, "{\"end_to_end\":[]}").unwrap();
        assert!(
            bad && report.contains(&format!("unresolved {all}")),
            "{report}"
        );
        // One run per side shows no spread.
        let one = line("serve_hot", 1, 1.0);
        let (report, bad) = compare(&one, &one, &bench()).unwrap();
        assert!(bad && report.contains("(1 run)"), "{report}");
    }
}
