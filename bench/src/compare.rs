//! `--compare a.jsonl b.jsonl`: judge result set `b` against `a` with
//! the bounds `BENCHMARK.json` fixes for the end-to-end metrics.
//!
//! A result set is what `--out FILE` appends: one JSON object per run
//! with `workload`, `seed`, `trace` and `metrics`. Per (metric,
//! workload) the verdict is
//!
//! * `worse` — b's median is worse than a's by more than the bound;
//! * `unresolved` — not worse, but a side's spread (interquartile range
//!   over median) is wider than the bound, and b's runs do not all read
//!   better than a's;
//! * `ok` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = serde_json::parse_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            Ok(Rule {
                name: field("name")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// (workload, metric) -> values, from the untraced runs of a result set.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

pub fn result_set(jsonl: &str) -> Result<ResultSet, String> {
    let mut out = ResultSet::new();
    for (n, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = serde_json::parse_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), med) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    if worse_by > rule.bound {
        return Verdict::Worse;
    }
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    if spread(a).max(spread(b)) > rule.bound && !every_b_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Print one row per (metric, workload); `Ok(true)` when none is worse.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let rules = rules(&read(benchmark_json)?)?;
    let (a, b) = (result_set(&read(a)?)?, result_set(&read(b)?)?);
    let mut clean = true;
    println!(
        "{:<28}{:<20}{:>14}{:>14}{:>9}{:>9}{:>7}  verdict",
        "metric", "workload", "median a", "median b", "spread a", "spread b", "bound"
    );
    for rule in &rules {
        for ((workload, name), va) in a.iter().filter(|((_, n), _)| *n == rule.name) {
            let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
                continue;
            };
            let verdict = judge(rule, va, vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<28}{:<20}{:>14.5}{:>14.5}{:>9.4}{:>9.4}{:>7.2}  {}",
                name,
                workload,
                median(va),
                median(vb),
                spread(va),
                spread(vb),
                rule.bound,
                verdict.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts() {
        let lower = Rule {
            name: "t".into(),
            lower_is_better: true,
            bound: 0.10,
        };
        let higher = Rule {
            lower_is_better: false,
            ..lower.clone()
        };
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&lower, &steady, &[10.5, 10.6, 10.4, 10.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &steady, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &steady, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&higher, &steady, &[8.5, 8.6, 8.4, 8.5]),
            Verdict::Worse
        );
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&lower, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(
            judge(&lower, &noisy, &[5.0, 5.1, 4.9, 5.0]),
            Verdict::Ok,
            "every run better"
        );
    }

    #[test]
    fn result_sets_skip_traced_runs() {
        let text = concat!(
            r#"{"workload":"w","seed":1,"trace":false,"metrics":{"m":{"value":2.0,"unit":"ms"}}}"#,
            "\n",
            r#"{"workload":"w","seed":1,"trace":true,"metrics":{"m":{"value":9.0,"unit":"ms"}}}"#,
            "\n"
        );
        let set = result_set(text).unwrap();
        assert_eq!(set[&("w".to_string(), "m".to_string())], vec![2.0]);
        let rules =
            rules(r#"{"end_to_end":[{"name":"m","unit":"ms","better":"lower","bound":0.1}]}"#)
                .unwrap();
        assert_eq!(
            rules[0],
            Rule {
                name: "m".into(),
                lower_is_better: true,
                bound: 0.1
            }
        );
    }
}
