//! `pxmark compare`: per (metric, workload) verdicts between two sets of
//! runs, from each side's median and quartiles and the metric's bound.

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::summary::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so a
    /// regression of the bound's size could hide in it.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a`'s median `b`'s median is worse (negative: better).
pub fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    let d = (b.median - a.median) / a.median.abs();
    match better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

/// `b` against the baseline `a`. `worse`: the median worsened by more
/// than the bound. `better`: it improved by more than the baseline's own
/// interquartile spread. With one run a side the spread is unknown and
/// taken as 0, so nothing is ever `unresolved` — run more than one.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a, b, better);
    if w > bound {
        Verdict::Worse
    } else if w < 0.0 && -w > a.spread() {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

/// Compare two sets (the `sets[i]` objects of a `pxmark run` document).
/// A (metric, workload) pair missing on either side is an error: a
/// benchmark that silently measures less is not the same benchmark.
pub fn compare_sets(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |set: &Json| {
        set.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("set has no `workloads` object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, run_a) in &wa {
        let run_b = wb
            .get(name)
            .ok_or_else(|| format!("workload {name} missing from the second set"))?;
        for m in &END_TO_END {
            let side = |run: &Json| {
                run.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
                    .ok_or_else(|| format!("{name}.{} missing or malformed", m.name))
            };
            let (sa, sb) = (side(run_a)?, side(run_b)?);
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                verdict: verdict(&sa, &sb, m.better, m.bound),
                a: sa,
                b: sb,
            });
        }
    }
    if let Some(extra) = wb.keys().find(|k| !wa.contains_key(*k)) {
        return Err(format!("workload {extra} missing from the first set"));
    }
    Ok(rows)
}

/// Print the verdict table; returns how many pairs were `worse`.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<16} {:<18} {:>14} {:>8} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "a.median", "a.iqr%", "b.median", "b.iqr%", "worse%"
    );
    for r in rows {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == r.metric)
            .expect("rows come from END_TO_END");
        println!(
            "{:<16} {:<18} {:>14.4} {:>8.2} {:>14.4} {:>8.2} {:>8.2}  {}",
            r.workload,
            r.metric,
            r.a.median,
            100.0 * r.a.spread(),
            r.b.median,
            100.0 * r.b.spread(),
            100.0 * worsening(&r.a, &r.b, m.better),
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "{} pairs: {} better, {} same, {worse} worse, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Same)
    );
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Summary {
        Summary {
            n: 10,
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::*;
        // Latency up 5% on a 10% bound, tight runs: same.
        assert_eq!(
            verdict(&s(100.0, 2.0), &s(105.0, 2.0), Lower, 0.10),
            Verdict::Same
        );
        // Up 15%: worse. Throughput *down* 15%: also worse.
        assert_eq!(
            verdict(&s(100.0, 2.0), &s(115.0, 2.0), Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&s(100.0, 2.0), &s(85.0, 2.0), Higher, 0.10),
            Verdict::Worse
        );
        // Throughput up 15% with a 2% baseline spread: better.
        assert_eq!(
            verdict(&s(100.0, 2.0), &s(115.0, 2.0), Higher, 0.10),
            Verdict::Better
        );
        // An improvement inside the baseline's own spread is not one.
        assert_eq!(
            verdict(&s(100.0, 6.0), &s(96.0, 2.0), Lower, 0.10),
            Verdict::Same
        );
        // Either side noisier than the bound: cannot tell, whatever the medians.
        assert_eq!(
            verdict(&s(100.0, 12.0), &s(100.0, 1.0), Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&s(100.0, 1.0), &s(150.0, 20.0), Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn set(thr: f64) -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let median = if m.name == "throughput_ops_s" {
                    thr
                } else {
                    10.0
                };
                (m.name.to_string(), s(median, 0.1).to_json())
            })
            .collect();
        Json::obj([(
            "workloads",
            Json::obj([("hop_chain", Json::obj([("end_to_end", Json::Obj(e2e))]))]),
        )])
    }

    #[test]
    fn sets_compare_pair_by_pair_and_missing_pairs_are_errors() {
        // Half the throughput is past any bound the contract allows.
        let rows = compare_sets(&set(1000.0), &set(500.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for r in &rows {
            let want = if r.metric == "throughput_ops_s" {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            assert_eq!(r.verdict, want, "{}", r.metric);
        }
        let empty = Json::obj([("workloads", Json::obj([]))]);
        assert!(compare_sets(&set(1.0), &empty).is_err());
        assert!(compare_sets(&empty, &set(1.0)).is_err());
        assert!(compare_sets(&Json::Null, &set(1.0)).is_err());
    }
}
