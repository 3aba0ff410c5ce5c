//! `ledger --compare a.jsonl b.jsonl`: two sets of runs, metric by
//! metric; the end-to-end ones judged by the bounds in
//! `BENCHMARK.json`, the per-layer ones of traced runs listed beside
//! them.
//!
//! Each file holds the record lines `--out` appends, usually ten runs
//! per workload with different seeds. `a` is the base of every ratio.

use crate::harness::{median, MetricSpec, Spec};
use crate::json::{self, Value};
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), which is what the driver computes.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 for a
/// single run, which has no spread to show.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values))
}

/// Values of one metric of one workload over the runs recorded in
/// `records`: the untraced ones for an end-to-end metric, the traced
/// ones for a per-layer metric.
fn values(records: &[Value], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(f64::from(u8::from(traced))))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// `ok`, `regressed`, or `unresolved` when a spread is wider than the
/// bound and the two sets overlap. The spread of `setup_s` is exempt,
/// as it is for the driver: only its medians are compared.
fn verdict(m: &MetricSpec, bound: f64, a: &[f64], b: &[f64]) -> &'static str {
    let ratio = median(b) / median(a);
    let worse_by = if m.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let b_always_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
    let noisy = m.name != "setup_s" && spread(a).max(spread(b)) > bound;
    if noisy && !b_always_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

pub fn run(spec: &Spec, path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<24} {:<30} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "spread a", "spread b", "bound"
    );
    let mut all_ok = true;
    for workload in &spec.workloads {
        let end_to_end = spec.end_to_end.iter().map(|m| (m, false));
        for (m, traced) in end_to_end.chain(spec.per_layer.iter().map(|m| (m, true))) {
            let va = values(&a, workload, traced, &m.name);
            let vb = values(&b, workload, traced, &m.name);
            // Per-layer metrics are listed where both files have them:
            // traced runs are optional, and a layer the workload never
            // enters reads 0.
            let absent = |v: &[f64]| v.iter().all(|x| *x == 0.0);
            if traced && (absent(&va) || absent(&vb)) {
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<24} {:<30} missing in one of the files", m.name);
                all_ok = false;
                continue;
            }
            // A per-layer metric has no bound, so no verdict either.
            let (bound, verdict) = match m.bound {
                Some(bound) => (format!("{:.0}%", bound * 100.0), verdict(m, bound, &va, &vb)),
                None => ("-".to_string(), "-"),
            };
            all_ok &= matches!(verdict, "ok" | "-");
            println!(
                "{workload:<24} {:<30} {:>14.4} {:>14.4} {:>8.4} {:>8.1}% {:>8.1}% {bound:>6}  {verdict} \
                 ({} and {} runs)",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                va.len(),
                vb.len(),
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
