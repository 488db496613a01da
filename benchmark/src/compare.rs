//! `benchmark compare A.json B.json`: hold set B against set A, metric by
//! metric and workload by workload, with the bounds of BENCHMARK.json.

use crate::metrics::{Better, EndToEnd, RunSet, END_TO_END};
use crate::stats::{iqr, median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread exceeds the bound: the runs cannot resolve a
    /// change of that size, so "unchanged" would claim too much.
    Unresolved,
}

/// By how much of A's median B is worse (positive) or better (negative).
pub fn worsening(better: Better, a_median: f64, b_median: f64) -> f64 {
    match better {
        Better::Lower => (b_median - a_median) / a_median,
        Better::Higher => (a_median - b_median) / a_median,
    }
}

/// `spread_exempt` is for `setup_s`, which a run measures once: only its
/// medians are held against the bound, as the driver does.
pub fn judge(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let spread_exempt = def.name == "setup_s";
    if worsening(def.better, median(a), median(b)) > def.bound {
        Verdict::Regressed
    } else if !spread_exempt && (spread(a) > def.bound || spread(b) > def.bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Values of one metric per workload, in run order.
fn by_workload(set: &RunSet, metric: &str) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in &set.runs {
        if let Some(m) = run.metrics.get(metric) {
            out.entry(run.workload.clone()).or_default().push(m.value);
        }
    }
    out
}

/// Why the two sets cannot be held against each other, if they cannot: a
/// workload whose runs all crashed in one set must not read as "all ok".
pub fn mismatch(a: &RunSet, b: &RunSet) -> Option<String> {
    let runs = |set: &RunSet| {
        let mut n: BTreeMap<String, usize> = BTreeMap::new();
        for run in &set.runs {
            *n.entry(run.workload.clone()).or_default() += 1;
        }
        n
    };
    let (na, nb) = (runs(a), runs(b));
    if na.is_empty() {
        return Some("set A holds no runs".to_string());
    }
    (na != nb).then(|| format!("runs per workload differ: A {na:?}, B {nb:?}"))
}

fn load(path: &Path) -> Result<RunSet, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print one row per workload and metric; `true` when every row is `Ok`
/// and no run in either set had a failed operation.
pub fn compare_files(a_path: &Path, b_path: &Path) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return false;
        }
    };
    if a.fingerprint != b.fingerprint {
        println!("# NOTE: the sets were measured on different machines or toolchains");
        println!("#   A: {:?}\n#   B: {:?}", a.fingerprint, b.fingerprint);
    }
    if let Some(why) = mismatch(&a, &b) {
        println!("# NOT COMPARABLE: {why}");
        return false;
    }
    let failed_ops: u64 = a.runs.iter().chain(&b.runs).map(|r| r.ops_failed).sum();
    println!(
        "{:<17} {:<18} {:>12} {:>7} {:>4} {:>12} {:>7} {:>4} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A iqr%",
        "nA",
        "B median",
        "B iqr%",
        "nB",
        "worse%",
        "bound%"
    );
    let mut all_ok = failed_ops == 0;
    for def in &END_TO_END {
        let (va, vb) = (by_workload(&a, def.name), by_workload(&b, def.name));
        for (workload, xa) in &va {
            if !def.scoped_to(workload) {
                continue;
            }
            let xb = vb.get(workload).map_or(&[][..], Vec::as_slice);
            if xb.len() != xa.len() {
                println!(
                    "{workload:<17} {:<18} A holds {} values, B {}: NOT COMPARABLE",
                    def.name,
                    xa.len(),
                    xb.len()
                );
                all_ok = false;
                continue;
            }
            let verdict = judge(def, xa, xb);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{:<17} {:<18} {:>12.4} {:>7.2} {:>4} {:>12.4} {:>7.2} {:>4} {:>+8.2} {:>6.0}  {}",
                workload,
                def.name,
                median(xa),
                100.0 * iqr(xa) / median(xa),
                xa.len(),
                median(xb),
                100.0 * iqr(xb) / median(xb),
                xb.len(),
                100.0 * worsening(def.better, median(xa), median(xb)),
                100.0 * def.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if failed_ops > 0 {
        println!("# {failed_ops} operations failed across the two sets");
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunRecord;

    fn set_of(runs: &[(&str, usize)]) -> RunSet {
        let record = |workload: &str| RunRecord {
            workload: workload.to_string(),
            seed: 1,
            seconds: 10.0,
            reps: 3,
            ops_attempted: 1,
            ops_failed: 0,
            metrics: BTreeMap::new(),
        };
        RunSet {
            runs: runs
                .iter()
                .flat_map(|&(w, n)| std::iter::repeat_n(record(w), n))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn sets_with_missing_runs_are_not_comparable() {
        let full = set_of(&[("rt_sparse", 10), ("des_fleet", 10)]);
        assert_eq!(mismatch(&full, &full), None);
        // a workload whose every run crashed before it was recorded
        let lost = set_of(&[("rt_sparse", 10)]);
        assert!(mismatch(&full, &lost).is_some());
        assert!(mismatch(&lost, &full).is_some());
        // one run short
        let short = set_of(&[("rt_sparse", 10), ("des_fleet", 9)]);
        assert!(mismatch(&full, &short).is_some());
        assert!(mismatch(&set_of(&[]), &set_of(&[])).is_some());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts_separate_regressed_unresolved_and_ok() {
        let def = |name: &'static str, better| EndToEnd {
            name,
            unit: "ms",
            better,
            bound: 0.10,
            scope: &[],
        };
        let (lower, higher) = (
            def("latency_ms", Better::Lower),
            def("rate", Better::Higher),
        );
        let tight: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let slower: Vec<f64> = tight.iter().map(|v| v * 1.2).collect();
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i) * 5.0).collect();
        assert_eq!(judge(&lower, &tight, &tight), Verdict::Ok);
        assert_eq!(judge(&lower, &tight, &slower), Verdict::Regressed);
        // a larger value is no regression where higher is better
        assert_eq!(judge(&higher, &tight, &slower), Verdict::Ok);
        // a spread wider than the bound cannot vouch for "unchanged"
        assert_eq!(judge(&lower, &noisy, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&lower, &tight, &noisy), Verdict::Unresolved);
        // set-up time is held to its medians only
        assert_eq!(
            judge(&def("setup_s", Better::Lower), &noisy, &noisy),
            Verdict::Ok
        );
        assert_eq!(
            judge(&def("setup_s", Better::Lower), &tight, &slower),
            Verdict::Regressed
        );
    }
}
