//! The metric lists: the one definition `BENCHMARK.json`, the reports and
//! `compare` all read. A metric is added here, by a `benchmark` issue,
//! or nowhere.

use crate::json::Json;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the runtime sees. `fail_share` is not here because the
/// benchmark's contract wants metrics that are never 0 and it is always
/// 0: it travels as `failed`/`attempted` in every result line instead.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Measured by a layer probe (workload-independent) rather than read
    /// off the traced run.
    pub probe: bool,
}

const fn probe(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        probe: true,
    }
}

const fn run(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        probe: false,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, named `<layer>.<metric>`; the layers are this
/// repo's modules. The README says which end-to-end metric each should
/// move, and on which workload. A metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [PerLayer; 68] = [
    // wire (px-wire)
    probe("wire.value_encode_ns"),
    probe("wire.value_decode_ns"),
    probe("wire.frame_push_ns"),
    probe("wire.frame_parse_ns"),
    probe("wire.frame_push_v2_ns"),
    probe("wire.frame_parse_v2_ns"),
    probe("wire.stream_feed_ns"),
    probe("wire.writebatch_ns"),
    // parcel
    probe("parcel.encode_ns"),
    probe("parcel.decode_ns"),
    PerLayer {
        name: "parcel.wire_bytes",
        unit: "B",
        better: Lower,
        probe: true,
    },
    // sched (sched + locality queues + sleep)
    run("sched.steals", "count", Lower),
    run("sched.parks", "count", Lower),
    run("sched.parks_per_op", "1/op", Lower),
    run("sched.busy_share", "ratio", Higher),
    run("sched.queue_wait_p50_ns", "ns", Lower),
    run("sched.queue_wait_p99_ns", "ns", Lower),
    run("sched.exec_user_p50_ns", "ns", Lower),
    run("sched.exec_sys_p50_ns", "ns", Lower),
    probe("sched.spawn_exec_ns"),
    // lco
    probe("lco.future_trigger_ns"),
    probe("lco.gate_contribute_ns"),
    run("lco.events", "count", Lower),
    run("lco.spawn_resolve_p50_ns", "ns", Lower),
    // agas
    probe("agas.resolve_birthplace_ns"),
    probe("agas.resolve_cached_ns"),
    probe("agas.record_migration_ns"),
    run("agas.cache_hit_rate", "ratio", Higher),
    run("agas.forwards_per_migration", "ratio", Lower),
    run("agas.chase_len_mean", "hops", Lower),
    run("agas.migrations", "count", Higher),
    // net (ports, inproc, tcp)
    run("net.parcels_per_frame", "ratio", Higher),
    run("net.bytes_per_parcel", "B", Lower),
    run("net.flush_timer_share", "ratio", Lower),
    run("net.queue_bytes_hwm", "B", Lower),
    run("net.reconnects", "count", Lower),
    run("net.submit_drain_p50_ns", "ns", Lower),
    // poll (px-poll)
    probe("poll.wake_rtt_ns"),
    probe("poll.wait_ready_ns"),
    // runtime (driver API), from the benchmark's own spans
    run("runtime.send_action_ns", "ns", Lower),
    run("runtime.new_future_ns", "ns", Lower),
    run("runtime.wait_ns", "ns", Lower),
    run("runtime.migrate_ns", "ns", Lower),
    run("runtime.build_s", "s", Lower),
    run("runtime.bytes_per_request", "B", Lower),
    // process
    probe("process.spawn_quiesce_ns"),
    // trace / metrics
    probe("trace.record_ns"),
    probe("metrics.record_ns"),
    run("trace.overhead_pct", "%", Lower),
    run("trace.events_dropped", "count", Lower),
    // stage (ledger), hop_chain and tcp_open only
    run("stage.send_to_submit_ns", "ns", Lower),
    run("stage.send_to_dispatch_ns", "ns", Lower),
    run("stage.recv_to_dispatch_ns", "ns", Lower),
    run("stage.dispatch_to_send_ns", "ns", Lower),
    run("stage.dispatch_to_trigger_ns", "ns", Lower),
    run("stage.trigger_to_release_ns", "ns", Lower),
    run("stage.release_to_waiter_ns", "ns", Lower),
    run("stage.wire_residual_ns", "ns", Lower),
    run("stage.sum_over_p50", "ratio", Higher),
    // app (px-workloads)
    probe("app.force_eval_ns"),
    run("app.seq_baseline_s", "s", Lower),
    run("app.parallel_efficiency", "ratio", Higher),
    // driver (diagnostics of the generator itself)
    run("driver.lat_p90_us", "us", Lower),
    run("driver.lat_p99_us", "us", Lower),
    run("driver.lat_max_us", "us", Lower),
    run("driver.max_late_us", "us", Lower),
    run("driver.achieved_rate", "1/s", Higher),
    run("driver.samples", "count", Higher),
];

/// Seconds one run measures for (`--seconds` from the driver).
pub const RUN_SECONDS: u64 = 15;

/// The contents of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    let cmd = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(cmd.map(Json::from).to_vec())),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(well_formed(n, 64, "_.-"), "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(u, 16, "_/%.-"), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn committed_manifest_is_the_one_the_tables_generate() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `pxmark manifest > BENCHMARK.json`"
        );
    }
}
