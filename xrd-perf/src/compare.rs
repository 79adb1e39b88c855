//! `xrd-perf compare A.json B.json`: hold two sets of runs against the
//! bounds `BENCHMARK.json` fixes.  One row per workload and end-to-end
//! metric; a verdict per row; every ratio printed with its base.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

/// What a row concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the run-to-run spread.
    Better,
    /// B's median is worse than A's by more than the metric's bound.
    Worse,
    /// Neither.
    Same,
    /// The spread between runs of one side is wider than the bound, so
    /// a regression of the bound's size could hide in it.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decide one row.  `a` and `b` are the metric's values over each
/// side's runs, `lower_is_better` its direction, `bound` the share of
/// A's median by which it may worsen.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (med_a, med_b) = (median(a), median(b));
    // Positive = B is worse, as a share of A.
    let worsening = if med_a == 0.0 {
        0.0
    } else {
        sign * (med_b - med_a) / med_a.abs()
    };
    let noise = spread(a).max(spread(b));
    let best_a = a.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
    let worst_b = b.iter().map(|v| sign * v).fold(f64::NEG_INFINITY, f64::max);
    if noise > bound {
        // Too noisy to rule a regression out — unless every run of B
        // beats every run of A.
        if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `workload → metric → values over runs`, plus each workload's
/// failed share, from a result file written by `all --out`.
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    fail_share: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut set = RunSet {
        values: BTreeMap::new(),
        fail_share: BTreeMap::new(),
    };
    let mut totals: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for run in runs {
        // Per-layer runs carry no bounded metric.
        if run.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let (failed, attempted) = totals.entry(workload.to_string()).or_default();
        *failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        *attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: run without metrics"))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    for (workload, (failed, attempted)) in totals {
        set.fail_share.insert(workload, failed / attempted.max(1.0));
    }
    Ok(set)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json`.
fn bounds(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"end_to_end\" array"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), better == "lower", bound))
                }
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// Compare two result files; print the table; `Ok(true)` if no row is
/// `worse` and no workload's failed share rose.
pub fn compare(benchmark: &str, path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B / A", "spread", "bound"
    );
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<16} (no runs in B)");
            continue;
        };
        for (name, lower_is_better, bound) in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let verdict = judge(va, vb, *lower_is_better, *bound);
            ok &= verdict != Verdict::Worse;
            let (med_a, med_b) = (median(va), median(vb));
            println!(
                "{workload:<16} {name:<22} {med_a:>12.4} {med_b:>12.4} {:>9.4} {:>7.2}% {:>6.1}%  {} (n = {} / {})",
                med_b / med_a,
                spread(va).max(spread(vb)) * 100.0,
                bound * 100.0,
                verdict.word(),
                va.len(),
                vb.len(),
            );
        }
        let (fa, fb) = (
            a.fail_share.get(workload).copied().unwrap_or(0.0),
            b.fail_share.get(workload).copied().unwrap_or(0.0),
        );
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "{workload:<16} {:<22} {fa:>12.6} {fb:>12.6} {:>9} {:>8} {:>7}  {}",
            "fail_share",
            "-",
            "-",
            "0",
            if rose { "worse" } else { "same" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        // Within the bound and the noise.
        assert_eq!(
            judge(&a, &[100.5, 101.5, 99.5, 101.0, 100.0], true, 0.08),
            Verdict::Same
        );
        // 12 % slower against an 8 % bound.
        assert_eq!(
            judge(&a, &[112.0, 113.0, 111.0, 112.5, 112.0], true, 0.08),
            Verdict::Worse
        );
        // 10 % faster, far outside the 2 % spread.
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.0, 90.5, 90.0], true, 0.08),
            Verdict::Better
        );
        // A throughput that rose is better, one that fell is worse.
        assert_eq!(
            judge(&a, &[112.0, 113.0, 111.0, 112.5, 112.0], false, 0.08),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[88.0, 89.0, 87.0, 88.5, 88.0], false, 0.08),
            Verdict::Worse
        );
        // Runs whose quartiles sit 30 % apart cannot resolve an 8 % bound …
        let noisy = [100.0, 130.0, 90.0, 115.0, 100.0];
        assert_eq!(
            judge(&noisy, &[101.0, 128.0, 92.0, 110.0, 99.0], true, 0.08),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[60.0, 80.0, 55.0, 70.0, 62.0], true, 0.08),
            Verdict::Better
        );
    }
}
