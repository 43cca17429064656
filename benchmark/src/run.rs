//! `pxmark run`: every workload untraced (end-to-end metrics) and traced
//! (per-layer metrics), each in a process of its own so that peak memory
//! and set-up time are that workload's alone.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::compare;
use crate::json::Json;
use crate::summary::Summary;
use crate::workloads;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The line before the result line carries the run's detail for us.
pub const DETAIL_PREFIX: &str = "pxmark-detail ";

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload per set, on seeds `seed..seed + runs`.
    pub runs: u64,
    pub sets: u64,
    pub smoke: bool,
}

/// One child run: its result line and its detail line, parsed.
fn child(workload: &str, seed: u64, opts: &Options, traced: bool) -> Result<(Json, Json), String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {}", out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("no result line")?;
    let detail = lines
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("no detail line")?;
    Ok((Json::parse(result)?, Json::parse(detail)?))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no metric {name}"))
}

fn one_set(opts: &Options) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut per_workload = BTreeMap::new();
    for spec in &workloads::ALL {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut details = Vec::new();
        for r in 0..opts.runs {
            eprintln!("[pxmark] {} untraced, seed {}", spec.name, opts.seed + r);
            let (result, detail) = child(spec.name, opts.seed + r, opts, false)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            for m in &END_TO_END {
                values
                    .entry(m.name)
                    .or_default()
                    .push(metric_value(&result, m.name)?);
            }
            details.push(detail);
        }
        eprintln!("[pxmark] {} traced, seed {}", spec.name, opts.seed);
        let (traced, traced_detail) = child(spec.name, opts.seed, opts, true)?;
        all_correct &= traced.get("correct") == Some(&Json::Bool(true));

        let mut end_to_end = BTreeMap::new();
        for m in &END_TO_END {
            let samples = values.get_mut(m.name).expect("filled above");
            let raw = Json::Arr(samples.iter().map(|&v| v.into()).collect());
            let summary = Summary::of(samples);
            println!("{}.{} {} {}", spec.name, m.name, m.unit, summary.median);
            let Json::Obj(mut row) = summary.to_json() else {
                unreachable!("a summary renders as an object");
            };
            row.insert("values".into(), raw);
            end_to_end.insert(m.name.to_string(), Json::Obj(row));
        }
        let mut per_layer = BTreeMap::new();
        for m in PER_LAYER.iter() {
            let v = metric_value(&traced, m.name)?;
            println!("{}.{} {} {}", spec.name, m.name, m.unit, v);
            per_layer.insert(m.name.to_string(), Json::from(v));
        }
        per_workload.insert(
            spec.name.to_string(),
            Json::obj([
                ("why", spec.why.into()),
                ("op", spec.op.into()),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
                ("runs", Json::Arr(details)),
                ("traced_run", traced_detail),
            ]),
        );
    }
    Ok((
        Json::obj([("workloads", Json::Obj(per_workload))]),
        all_correct,
    ))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run everything; returns the process exit code.
pub fn run(opts: &Options) -> Result<i32, String> {
    let mut sets = Vec::new();
    let mut all_correct = true;
    for s in 0..opts.sets {
        eprintln!("[pxmark] set {} of {}", s + 1, opts.sets);
        let (set, correct) = one_set(opts)?;
        all_correct &= correct;
        sets.push(set);
    }
    let doc = Json::obj([
        ("pxmark", 1u64.into()),
        ("git_rev", git_rev().as_str().into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("runs_per_workload", opts.runs.into()),
        // A smoke run checks that everything works; its numbers are a
        // fiftieth of a run and compare with nothing.
        ("comparable", Json::Bool(!opts.smoke)),
        ("all_correct", Json::Bool(all_correct)),
        ("sets", Json::Arr(sets.clone())),
    ]);
    let dir = crate::out_dir();
    let path = dir.join(format!("run-{}.json", opts.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.render()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[pxmark] wrote {}", path.display());

    let mut code = if all_correct { 0 } else { 1 };
    if opts.smoke {
        println!("smoke run: numbers above are NOT comparable");
    } else if let [first, .., last] = sets.as_slice() {
        // "Says so twice": the last set against the first.
        if compare::print(&compare::compare_sets(first, last)?) > 0 {
            code = 1;
        }
    }
    println!("{}", doc.render());
    Ok(code)
}

/// `pxmark compare a.json b.json`: the first set of `a` is the baseline,
/// the last set of `b` the candidate.
pub fn compare_files(a: &str, b: &str) -> Result<i32, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            return Err(format!("{path}: not a comparable run (smoke?)"));
        }
        Ok(doc)
    };
    let pick = |doc: &Json, last: bool| -> Result<Json, String> {
        let sets = doc
            .get("sets")
            .and_then(Json::as_arr)
            .ok_or("document has no sets")?;
        let set = if last { sets.last() } else { sets.first() };
        set.cloned()
            .ok_or_else(|| "document has no sets".to_string())
    };
    let rows = compare::compare_sets(&pick(&load(a)?, false)?, &pick(&load(b)?, true)?)?;
    Ok(i32::from(compare::print(&rows) > 0))
}
