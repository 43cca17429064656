//! `--metrics` reporting: percentile tables, BENCH JSON rows, and the
//! exposition-format checker the CI smoke leg runs.

use crate::table::print_table;
use px_core::prelude::{Instrument, MetricsSnapshot};
use serde::Serialize;

/// One instrument's percentile summary — a `BENCH_*.json` row.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsRow {
    /// Exposition name of the instrument (e.g. `px_queue_wait_ns`).
    pub instrument: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample, nanoseconds (0.0 when empty — never NaN).
    pub mean_ns: f64,
    /// p50 bucket upper bound, nanoseconds.
    pub p50_ns: u64,
    /// p90 bucket upper bound, nanoseconds.
    pub p90_ns: u64,
    /// p99 bucket upper bound, nanoseconds.
    pub p99_ns: u64,
    /// p999 bucket upper bound, nanoseconds.
    pub p999_ns: u64,
}

/// One row per instrument, in registry order.
pub fn metrics_rows(snap: &MetricsSnapshot) -> Vec<MetricsRow> {
    Instrument::ALL
        .iter()
        .map(|&inst| {
            let h = snap.get(inst);
            MetricsRow {
                instrument: inst.name().to_string(),
                count: h.count,
                mean_ns: h.mean_ns(),
                p50_ns: h.quantile(0.50),
                p90_ns: h.quantile(0.90),
                p99_ns: h.quantile(0.99),
                p999_ns: h.quantile(0.999),
            }
        })
        .collect()
}

/// Print the percentile table for one runtime's (or a merged cluster's)
/// snapshot.
pub fn print_metrics_table(label: &str, rows: &[MetricsRow]) {
    print_table(
        &format!("{label} — latency percentiles (ns, bucket upper bounds)"),
        &["instrument", "count", "mean", "p50", "p90", "p99", "p999"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.instrument.clone(),
                    r.count.to_string(),
                    format!("{:.0}", r.mean_ns),
                    r.p50_ns.to_string(),
                    r.p90_ns.to_string(),
                    r.p99_ns.to_string(),
                    r.p999_ns.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Validate a `Runtime::metrics_text` page: every non-comment line must
/// parse as `name{labels} value` with a finite numeric value, and every
/// instrument must contribute at least one `_bucket` line. Returns the
/// first violation (CI pipes the smoke-leg page through this).
pub fn check_metrics_text(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("no value on line: {line:?}"))?;
        let open = name
            .find('{')
            .ok_or_else(|| format!("no label braces on line: {line:?}"))?;
        if !name.ends_with('}') || open == 0 {
            return Err(format!("malformed `name{{labels}}` on line: {line:?}"));
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric value on line: {line:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite value on line: {line:?}"));
        }
    }
    for inst in Instrument::ALL {
        let bucket = format!("{}_bucket{{", inst.name());
        if !text.contains(&bucket) {
            return Err(format!("instrument {} has no bucket lines", inst.name()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_instrument_and_never_nan() {
        let empty = MetricsSnapshot::default();
        let rows = metrics_rows(&empty);
        assert_eq!(rows.len(), Instrument::ALL.len());
        for (r, inst) in rows.iter().zip(Instrument::ALL) {
            assert_eq!(r.instrument, inst.name());
            assert_eq!(r.count, 0);
            assert!(r.mean_ns.is_finite());
        }
    }

    #[test]
    fn format_checker_accepts_real_pages_and_rejects_drift() {
        // A real page from a live runtime passes.
        let rt = px_core::prelude::RuntimeBuilder::new(
            px_core::prelude::Config::small(1, 1).with_metrics(true),
        )
        .build()
        .unwrap();
        rt.run_blocking(px_core::prelude::LocalityId(0), |_| {});
        let text = rt.metrics_text();
        check_metrics_text(&text).unwrap();
        rt.shutdown();
        // Drift is rejected with a pointed message.
        assert!(check_metrics_text("px_thing 1\n").is_err(), "no braces");
        assert!(check_metrics_text("px_thing{}\n").is_err(), "no value");
        assert!(check_metrics_text("px_thing{} NaN\n").is_err(), "NaN");
        assert!(
            check_metrics_text("px_ok{} 1\n").is_err(),
            "missing instrument buckets"
        );
    }
}
