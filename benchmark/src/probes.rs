//! Layer probes: single-threaded loops that time calls into one layer's
//! public functions, with nothing else running.

use crate::workloads::bh_force;
use px_core::action::Value;
use px_core::agas::Agas;
use px_core::lco::{ExtSlot, LcoCore, Waiter};
use px_core::metrics::Histogram;
use px_core::prelude::*;
use px_core::trace::TraceRing;
use px_poll::{Interest, Poller, WAKE_TOKEN};
use px_wire::stream::{msg_kind, StreamAssembler, WriteBatch};
use px_wire::{FrameBuf, FrameView, FRAME_VERSION, FRAME_VERSION_CHECKSUM};
use px_workloads::barnes_hut::{make_cluster, Octree};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per frame and messages per stream chunk in the wire probes.
const BATCH: usize = 16;

/// Median nanoseconds per call of `f` over batches of `per_batch` calls,
/// run back to back for `budget`. The median of batches shrugs off the
/// odd preempted batch, which a mean would not.
fn probe(budget: Duration, per_batch: u64, mut f: impl FnMut()) -> f64 {
    let stop = Instant::now() + budget;
    let mut batches = Vec::new();
    loop {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        let t1 = Instant::now();
        batches.push((t1 - t0).as_nanos() as f64 / per_batch as f64);
        if t1 >= stop {
            break;
        }
    }
    crate::summary::sort(&mut batches);
    crate::summary::median(&batches)
}

/// The 96-byte value of the `wire.value_*` probes.
#[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
struct Sample {
    ids: [u64; 8],
    weights: [f32; 8],
}

fn sq_parcel() -> Parcel {
    Parcel::new(
        Gid::locality_root(LocalityId(1)),
        ActionId::of("pxmark/sq"),
        Value::encode(&0x1234_5678_9abc_def0u64).expect("integer encodes"),
        Continuation::set(Gid::new(LocalityId(0), GidKind::Lco, 4096)),
    )
}

/// Run every probe for `budget` each; returns `metric name → value`.
pub fn run_all(budget: Duration, seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();

    // ---- wire -----------------------------------------------------------
    let sample = Sample {
        ids: [seed; 8],
        weights: [0.5; 8],
    };
    let encoded = px_wire::to_bytes(&sample).expect("sample encodes");
    assert_eq!(
        encoded.len(),
        96,
        "the value probe is specified at 96 bytes"
    );
    out.insert(
        "wire.value_encode_ns",
        probe(budget, 1024, || {
            black_box(px_wire::to_bytes(black_box(&sample)).expect("sample encodes"));
        }),
    );
    out.insert(
        "wire.value_decode_ns",
        probe(budget, 1024, || {
            black_box(px_wire::from_bytes::<Sample>(black_box(&encoded)).expect("decodes"));
        }),
    );
    let record = sq_parcel().encode();
    for (version, push, parse) in [
        (FRAME_VERSION, "wire.frame_push_ns", "wire.frame_parse_ns"),
        (
            FRAME_VERSION_CHECKSUM,
            "wire.frame_push_v2_ns",
            "wire.frame_parse_v2_ns",
        ),
    ] {
        let mut frame = FrameBuf::with_version(version);
        let per_record = BATCH as f64;
        out.insert(
            push,
            probe(budget, 64, || {
                for _ in 0..BATCH {
                    frame.push_record(black_box(&record));
                }
                black_box(frame.take());
            }) / per_record,
        );
        for _ in 0..BATCH {
            frame.push_record(&record);
        }
        let bytes = frame.take();
        out.insert(
            parse,
            probe(budget, 64, || {
                let view = FrameView::parse(black_box(&bytes)).expect("own frame parses");
                for r in view.records() {
                    black_box(r.expect("own record parses"));
                }
            }) / per_record,
        );
    }
    let mut chunk = Vec::new();
    for _ in 0..BATCH {
        chunk.extend_from_slice(&px_wire::stream::encode_msg_header(
            msg_kind::PARCEL,
            record.len() as u32,
        ));
        chunk.extend_from_slice(&record);
    }
    let mut assembler = StreamAssembler::new();
    out.insert(
        "wire.stream_feed_ns",
        probe(budget, 64, || {
            assembler.feed(black_box(&chunk));
            while let Some(msg) = assembler.next_msg().expect("own stream parses") {
                black_box(msg);
            }
        }) / BATCH as f64,
    );
    out.insert(
        "wire.writebatch_ns",
        probe(budget, 64, || {
            let mut batch = WriteBatch::new();
            for _ in 0..BATCH {
                batch.push(msg_kind::PARCEL, record.clone());
            }
            // The slices borrow the batch, so they live in a block of
            // their own, as a transport's flush would hold them.
            let n = {
                let mut slices = Vec::with_capacity(2 * BATCH);
                let n = batch.unwritten_slices(&mut slices, 2 * BATCH);
                black_box(&slices);
                n
            };
            batch.advance(n);
            black_box(batch.is_empty());
        }) / BATCH as f64,
    );

    // ---- parcel ---------------------------------------------------------
    let parcel = sq_parcel();
    out.insert("parcel.wire_bytes", record.len() as f64);
    out.insert(
        "parcel.encode_ns",
        probe(budget, 1024, || {
            black_box(black_box(&parcel).encode());
        }),
    );
    out.insert(
        "parcel.decode_ns",
        probe(budget, 1024, || {
            black_box(Parcel::decode(black_box(&record)).expect("own parcel decodes"));
        }),
    );

    // ---- lco ------------------------------------------------------------
    let gid = Gid::new(LocalityId(0), GidKind::Lco, 4096);
    let unit = Value::unit();
    out.insert(
        "lco.future_trigger_ns",
        probe(budget, 1024, || {
            let mut lco = LcoCore::new_future(gid);
            let slot = Arc::new(ExtSlot::default());
            black_box(lco.add_waiter(Waiter::External(slot)));
            black_box(lco.trigger(unit.clone()).expect("first trigger"));
        }),
    );
    const GATE: u64 = 1024;
    out.insert(
        "lco.gate_contribute_ns",
        probe(budget, 4, || {
            let mut gate = LcoCore::new_and_gate(gid, GATE);
            for _ in 0..GATE {
                black_box(gate.trigger(unit.clone()).expect("gate counts down"));
            }
        }) / GATE as f64,
    );

    // ---- agas -----------------------------------------------------------
    let agas = Agas::new(2);
    let at_home = Gid::new(LocalityId(1), GidKind::Data, 5000);
    let moved = Gid::new(LocalityId(1), GidKind::Data, 5001);
    agas.record_migration(moved, LocalityId(0));
    agas.resolve(LocalityId(0), moved); // fills L0's cache
    out.insert(
        "agas.resolve_birthplace_ns",
        probe(budget, 1024, || {
            black_box(agas.resolve(LocalityId(0), black_box(at_home)));
        }),
    );
    out.insert(
        "agas.resolve_cached_ns",
        probe(budget, 1024, || {
            black_box(agas.resolve(LocalityId(0), black_box(moved)));
        }),
    );
    let mut flip = 0u16;
    out.insert(
        "agas.record_migration_ns",
        probe(budget, 1024, || {
            flip ^= 1;
            agas.record_migration(black_box(moved), LocalityId(flip));
        }),
    );

    // ---- trace / metrics ------------------------------------------------
    let ring = TraceRing::new(4096, LocalityId(0), 0, Instant::now());
    out.insert(
        "trace.record_ns",
        probe(budget, 1024, || {
            black_box(ring.record(7, TraceEventKind::ParcelSend, gid.0, 1));
        }),
    );
    let hist = Histogram::default();
    let mut v = seed | 1;
    out.insert(
        "metrics.record_ns",
        probe(budget, 1024, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        }),
    );

    // ---- poll -----------------------------------------------------------
    out.extend(poll_probes(budget));

    // ---- sched / process (each builds a one-worker runtime) ---------------
    out.insert("sched.spawn_exec_ns", spawn_exec(budget));
    out.insert("process.spawn_quiesce_ns", spawn_quiesce(budget));

    // ---- app ------------------------------------------------------------
    let bodies = bh_force::partition(&make_cluster(bh_force::BODIES, seed), 0);
    let tree = Octree::build(&bodies);
    let mut next = 0usize;
    out.insert(
        "app.force_eval_ns",
        probe(budget, 256, || {
            next = (next + 1) % bodies.len();
            black_box(tree.force_on(black_box(bodies[next].pos), bh_force::THETA));
        }),
    );
    out
}

/// `poll.wake_rtt_ns`: `wake()` here until a thread blocked in `wait()`
/// has seen it. `poll.wait_ready_ns`: one `wait()` on an fd that is ready.
fn poll_probes(budget: Duration) -> [(&'static str, f64); 2] {
    let poller = Arc::new(Poller::new().expect("epoll available (pxmark needs Linux)"));
    let seen = Arc::new(AtomicU64::new(0));
    let waiter = {
        let (poller, seen) = (poller.clone(), seen.clone());
        std::thread::spawn(move || {
            let mut events = Vec::new();
            loop {
                poller.wait(&mut events, None).expect("epoll_wait");
                if events.iter().any(|e| e.token == WAKE_TOKEN) {
                    // SeqCst pairs with the spin below: the count is the
                    // only thing the two threads share.
                    if seen.fetch_add(1, Ordering::SeqCst) == u64::MAX - 1 {
                        return;
                    }
                }
            }
        })
    };
    let mut sent = 0u64;
    let wake_rtt = probe(budget, 64, || {
        sent += 1;
        poller.wake();
        while seen.load(Ordering::SeqCst) < sent {
            std::hint::spin_loop();
        }
    });
    // Tell the waiter to stop: the next wake is its last.
    seen.store(u64::MAX - 1, Ordering::SeqCst);
    poller.wake();
    waiter.join().expect("waiter thread does not panic");

    let (mut tx, rx) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    tx.write_all(b"x").expect("write to socket pair");
    let ready = Poller::new().expect("epoll available");
    ready
        .register(rx.as_raw_fd(), 1, Interest::READABLE)
        .expect("register socket");
    let mut events = Vec::new();
    let wait_ready = probe(budget, 256, || {
        ready
            .wait(&mut events, Some(Duration::ZERO))
            .expect("epoll_wait");
        assert_eq!(events.len(), 1, "level-triggered: still readable");
    });
    [
        ("poll.wake_rtt_ns", wake_rtt),
        ("poll.wait_ready_ns", wait_ready),
    ]
}

/// Push + pop + run per task: a zero-grain binary tree on one worker.
fn spawn_exec(budget: Duration) -> f64 {
    const DEPTH: u32 = 12;
    const TASKS: u64 = (2 << DEPTH) - 1;
    fn node(ctx: &mut Ctx<'_>, depth: u32, gate: Gid) {
        if depth == DEPTH {
            ctx.trigger_value(gate, Value::unit());
            return;
        }
        for _ in 0..2 {
            ctx.spawn(move |ctx| node(ctx, depth + 1, gate));
        }
    }
    let rt = RuntimeBuilder::new(Config::small(1, 1))
        .build()
        .expect("in-process runtime builds");
    let per_tree = probe(budget, 1, || {
        let gate = rt.new_and_gate(LocalityId(0), 1 << DEPTH);
        rt.spawn_at(LocalityId(0), move |ctx| node(ctx, 0, gate));
        FutureRef::<()>::from_gid(gate)
            .wait(&rt)
            .expect("gate fires");
    });
    rt.shutdown();
    per_tree / TASKS as f64
}

/// Create a process, spawn one task in it, release the root, wait for
/// quiescence.
fn spawn_quiesce(budget: Duration) -> f64 {
    let rt = RuntimeBuilder::new(Config::small(1, 1))
        .build()
        .expect("in-process runtime builds");
    let ns = probe(budget, 16, || {
        let p = rt.create_process(LocalityId(0));
        p.spawn_at(&rt, LocalityId(0), |_| {});
        p.finish_root(&rt);
        p.wait(&rt).expect("process quiesces");
    });
    rt.shutdown();
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_number() {
        let out = run_all(Duration::from_millis(2), 1);
        let listed = crate::catalog::PER_LAYER.iter().filter(|m| m.probe);
        for m in listed.clone() {
            let v = out.get(m.name).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }
        assert_eq!(out.len(), listed.count());
    }
}
