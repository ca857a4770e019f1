//! Re-processing of result files: the per-workload summary `--all` prints,
//! and `--compare`, which diffs two result files without rerunning.

use crate::stats::{median, quartiles};
use serde_json::Value;

/// Values of `metric` over the plain runs of `workload` in a result file.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc["runs"]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter(|r| r["workload"].as_str() == Some(workload))
                .filter(|r| r["trace"].as_bool() == Some(false))
                .filter_map(|r| r["metrics"][metric]["value"].as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Median and quartiles; a single sample is its own quartiles.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let m = median(xs);
    let (q1, q3) = if xs.len() >= 2 { quartiles(xs) } else { (m, m) };
    (m, q1, q3)
}

fn workloads(doc: &Value) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in doc["runs"].as_array().into_iter().flatten() {
        if let Some(w) = r["workload"].as_str() {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

/// Print median [q1, q3] of every end-to-end metric per workload.
pub fn summarize(doc: &Value) {
    for w in workloads(doc) {
        println!("{w}");
        for d in crate::metrics::end_to_end() {
            let xs = values(doc, &w, &d.name);
            if xs.is_empty() {
                continue;
            }
            let (m, q1, q3) = spread(&xs);
            println!(
                "  {:<16} {m:>12.4} [{q1:.4}, {q3:.4}] {:<4} n={}  ({} is better)",
                d.name,
                d.unit,
                xs.len(),
                d.better.as_str()
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Within,
}

/// The verdict on one metric of one workload. `lower_is_better` orients
/// the change; `bound` is the share of the old median the metric may get
/// worse by. The spread on either side wider than the bound leaves the
/// comparison unresolved, unless every new run beats every old one. A gain
/// needs the medians to differ by more than the old side's quartile spread
/// and the new side to win nine tenths of all old/new pairs.
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (om, oq1, oq3) = spread(old);
    let (nm, nq1, nq3) = spread(new);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let better = |n: f64, o: f64| sign * (n - o) < 0.0;
    let worse = sign * (nm - om) / om;
    let old_spread = (oq3 - oq1) / om;
    let spread = old_spread.max((nq3 - nq1) / nm);
    let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    let wins =
        new.iter().flat_map(|&n| old.iter().map(move |&o| better(n, o))).filter(|&b| b).count();
    let pairs = new.len() * old.len();
    if all_better {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if -worse > old_spread && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `--compare OLD NEW`: one row per workload and end-to-end metric, with
/// bounds and directions from the benchmark definition file.
pub fn run(old_path: &str, new_path: &str, bounds_path: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    let (old, new, spec) = (load(old_path)?, load(new_path)?, load(bounds_path)?);
    let metrics = spec["end_to_end"].as_array().ok_or("no end_to_end list in the bounds file")?;
    println!(
        "{:<18} {:<15} {:>26} {:>26} {:>8}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change"
    );
    for w in workloads(&new) {
        for m in metrics {
            let name = m["name"].as_str().unwrap_or_default();
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let lower = m["better"].as_str() != Some("higher");
            let (o, n) = (values(&old, &w, name), values(&new, &w, name));
            if o.is_empty() || n.is_empty() {
                println!("{w:<18} {name:<15} missing on one side");
                continue;
            }
            let ((om, oq1, oq3), (nm, nq1, nq3)) = (spread(&o), spread(&n));
            let v = verdict(&o, &n, lower, bound);
            println!(
                "{w:<18} {name:<15} {om:>10.4} [{oq1:>6.4}, {oq3:>6.4}] {nm:>10.4} [{nq1:>6.4}, {nq3:>6.4}] {:>+7.1}%  {v:?} (bound {:.0}%)",
                (nm - om) / om * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let old = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Every new run faster than every old one.
        assert_eq!(verdict(&old, &[8.0, 8.1, 7.9], true, 0.1), Verdict::Better);
        // Slower beyond the 10% bound with a tight spread.
        assert_eq!(verdict(&old, &[12.0, 12.1, 11.9, 12.05], true, 0.1), Verdict::Worse);
        // Within noise.
        assert_eq!(verdict(&old, &[10.02, 9.98, 10.0], true, 0.1), Verdict::Within);
        // A spread wider than the bound decides nothing.
        assert_eq!(verdict(&old, &[5.0, 15.0, 10.0, 20.0], true, 0.1), Verdict::Unresolved);
        // Direction: higher is better.
        assert_eq!(verdict(&old, &[12.0, 12.1, 11.9], false, 0.1), Verdict::Better);
    }

    #[test]
    fn values_come_from_plain_runs_of_one_workload() {
        let doc: Value = serde_json::from_str(
            r#"{"runs": [
                {"workload": "a", "trace": false, "metrics": {"m": {"value": 1.0}}},
                {"workload": "a", "trace": true, "metrics": {"m": {"value": 9.0}}},
                {"workload": "b", "trace": false, "metrics": {"m": {"value": 5.0}}},
                {"workload": "a", "trace": false, "metrics": {"m": {"value": 3.0}}}
            ]}"#,
        )
        .expect("parses");
        assert_eq!(values(&doc, "a", "m"), vec![1.0, 3.0]);
        assert_eq!(workloads(&doc), vec!["a", "b"]);
    }
}
