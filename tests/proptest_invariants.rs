//! Property-based tests on the core data structures and invariants.

use parallex::core::action::{ActionId, Value};
use parallex::core::agas::Agas;
use parallex::core::gid::{Gid, GidKind, LocalityId};
use parallex::core::lco::LcoCore;
use parallex::core::parcel::{ContStep, Continuation, Parcel};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WireEnum {
    Unit,
    Tuple(u32, i64),
    Struct { name: String, flags: Vec<bool> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WireStruct {
    a: u8,
    b: i16,
    c: u64,
    d: i128,
    f: f64,
    s: String,
    v: Vec<u32>,
    o: Option<Box<WireEnum>>,
    pairs: Vec<(u16, String)>,
}

// proptest-derive is not in the offline crate set; strategies are spelled
// out by hand.
fn wire_enum() -> impl Strategy<Value = WireEnum> {
    prop_oneof![
        Just(WireEnum::Unit),
        (any::<u32>(), any::<i64>()).prop_map(|(a, b)| WireEnum::Tuple(a, b)),
        (
            "[a-z]{0,12}",
            proptest::collection::vec(any::<bool>(), 0..8)
        )
            .prop_map(|(name, flags)| WireEnum::Struct { name, flags }),
    ]
}

fn wire_struct() -> impl Strategy<Value = WireStruct> {
    (
        any::<u8>(),
        any::<i16>(),
        any::<u64>(),
        any::<i128>(),
        any::<f64>(),
        "[ -~]{0,16}",
        proptest::collection::vec(any::<u32>(), 0..16),
        proptest::option::of(wire_enum().prop_map(Box::new)),
        proptest::collection::vec((any::<u16>(), "[a-z]{0,6}".prop_map(String::from)), 0..6),
    )
        .prop_map(|(a, b, c, d, f, s, v, o, pairs)| WireStruct {
            a,
            b,
            c,
            d,
            f,
            s,
            v,
            o,
            pairs,
        })
}

proptest! {
    // ---- wire format -----------------------------------------------------

    #[test]
    fn wire_roundtrips_arbitrary_structs(x in wire_struct()) {
        let bytes = px_roundtrip(&x);
        prop_assert!(bytes.is_ok());
    }

    #[test]
    fn wire_roundtrips_nested_options(x in any::<Option<Option<Vec<Option<u8>>>>>()) {
        prop_assert!(px_roundtrip(&x).is_ok());
    }

    #[test]
    fn wire_rejects_truncation(x in wire_struct(), cut in 1usize..8) {
        let bytes = parallex::wire::to_bytes(&x).unwrap();
        if bytes.len() >= cut {
            let r: Result<WireStruct, _> =
                parallex::wire::from_bytes(&bytes[..bytes.len() - cut]);
            // Truncation must never produce an equal value silently.
            if let Ok(y) = r {
                prop_assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn wire_floats_roundtrip_bitwise(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        let bytes = parallex::wire::to_bytes(&f).unwrap();
        let g: f64 = parallex::wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(g.to_bits(), bits);
    }

    // ---- GIDs --------------------------------------------------------------

    #[test]
    fn gid_pack_unpack(loc in 0u16.., seq in 0u64..(1 << 44)) {
        for kind in [GidKind::Data, GidKind::Lco, GidKind::Process,
                     GidKind::Echo, GidKind::Hardware, GidKind::User] {
            let g = Gid::new(LocalityId(loc), kind, seq);
            prop_assert_eq!(g.birthplace(), LocalityId(loc));
            prop_assert_eq!(g.kind(), kind);
            prop_assert_eq!(g.seq(), seq);
        }
    }

    // ---- parcels -----------------------------------------------------------

    #[test]
    fn parcel_roundtrips(
        dest_loc in 0u16..100,
        seq in 0u64..1000,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        steps in proptest::collection::vec(0u8..3, 0..4),
        hops in 0u8..16,
        staged in any::<bool>(),
        has_proc in any::<bool>(),
    ) {
        let cont = Continuation {
            steps: steps
                .iter()
                .map(|&t| match t {
                    0 => ContStep::SetLco(Gid::new(LocalityId(1), GidKind::Lco, 5)),
                    1 => ContStep::Call {
                        action: ActionId::of("prop/next"),
                        target: Gid::new(LocalityId(2), GidKind::Data, 9),
                    },
                    _ => ContStep::Contribute(Gid::new(LocalityId(3), GidKind::Lco, 77)),
                })
                .collect(),
        };
        let mut p = Parcel::new(
            Gid::new(LocalityId(dest_loc), GidKind::Data, seq),
            ActionId::of("prop/action"),
            Value::from_bytes(payload),
            cont,
        );
        p.hops = hops;
        p.staged = staged;
        if has_proc {
            p.process = Some(Gid::new(LocalityId(0), GidKind::Process, 3));
        }
        let q = Parcel::decode(&p.encode()).unwrap();
        prop_assert_eq!(q.dest, p.dest);
        prop_assert_eq!(q.action, p.action);
        prop_assert_eq!(&q.cont, &p.cont);
        prop_assert_eq!(q.hops, p.hops);
        prop_assert_eq!(q.staged, p.staged);
        prop_assert_eq!(q.process, p.process);
        prop_assert_eq!(q.payload.bytes(), p.payload.bytes());
        prop_assert_eq!(p.wire_size(), p.encode().len());
    }

    // ---- LCO state machines --------------------------------------------------

    #[test]
    fn and_gate_fires_exactly_at_n(n in 1u64..64) {
        let mut gate = LcoCore::new_and_gate(Gid::new(LocalityId(0), GidKind::Lco, 1), n);
        for k in 0..n {
            prop_assert_eq!(gate.is_ready(), false, "fired early at {}", k);
            gate.trigger(Value::unit()).unwrap();
        }
        prop_assert!(gate.is_ready());
    }

    #[test]
    fn reduce_is_order_insensitive(mut xs in proptest::collection::vec(0u64..1000, 1..20)) {
        let fold = |acc: Value, v: Value| {
            let a: u64 = acc.decode().unwrap();
            let b: u64 = v.decode().unwrap();
            Value::encode(&(a + b)).unwrap()
        };
        let sum: u64 = xs.iter().sum();
        let gid = Gid::new(LocalityId(0), GidKind::Lco, 2);
        // Forward order.
        let mut r = LcoCore::new_reduce(gid, xs.len() as u64, Value::encode(&0u64).unwrap(), Box::new(fold));
        for &x in &xs {
            r.contribute(Value::encode(&x).unwrap()).unwrap();
        }
        prop_assert_eq!(r.value().unwrap().decode::<u64>().unwrap(), sum);
        // Reversed order.
        xs.reverse();
        let mut r = LcoCore::new_reduce(gid, xs.len() as u64, Value::encode(&0u64).unwrap(), Box::new(fold));
        for &x in &xs {
            r.contribute(Value::encode(&x).unwrap()).unwrap();
        }
        prop_assert_eq!(r.value().unwrap().decode::<u64>().unwrap(), sum);
    }

    #[test]
    fn semaphore_never_over_grants(permits in 1u64..8, acquires in 1usize..32) {
        let mut sem = LcoCore::new_semaphore(Gid::new(LocalityId(0), GidKind::Lco, 3), permits);
        let mut granted = 0usize;
        for _ in 0..acquires {
            let acts = sem
                .acquire(parallex::core::lco::Waiter::Cont(Continuation::none()))
                .unwrap();
            granted += acts.len();
        }
        prop_assert!(granted as u64 <= permits);
        // Each release grants exactly one queued waiter while any remain.
        let queued = acquires.saturating_sub(granted);
        let mut released = 0usize;
        for _ in 0..queued {
            released += sem.release().len();
        }
        prop_assert_eq!(released, queued);
    }

    #[test]
    fn poisoned_lco_releases_all_waiter_kinds_exactly_once(
        kind in 0usize..5,
        n in 1u64..16,
        before in proptest::collection::vec(0usize..3, 0..6),
        after in proptest::collection::vec(0usize..3, 0..6),
    ) {
        use parallex::core::error::{Fault, FaultCause};
        use parallex::core::lco::{ExtSlot, Waiter};
        use std::sync::Arc;

        let gid = Gid::new(LocalityId(0), GidKind::Lco, 9);
        let mk_waiter = |k: usize| match k {
            0 => Waiter::Cont(Continuation::set(gid)),
            1 => Waiter::External(Arc::new(ExtSlot::default())),
            _ => Waiter::Depleted(Box::new(|_ctx, _v| {})),
        };
        let mut lco = match kind {
            0 => LcoCore::new_future(gid),
            1 => LcoCore::new_and_gate(gid, n),
            2 => LcoCore::new_reduce(gid, n, Value::encode(&0u64).unwrap(),
                    Box::new(|a, _| a)),
            3 => LcoCore::new_dataflow(gid, n as usize,
                    Box::new(|_| Value::unit())),
            _ => LcoCore::new_semaphore(gid, 0),
        };
        // Register waiters of every kind; semaphores queue via acquire.
        let mut registered = 0usize;
        for &k in &before {
            let acts = if kind == 4 {
                lco.acquire(mk_waiter(k)).unwrap()
            } else {
                lco.add_waiter(mk_waiter(k))
            };
            prop_assert!(acts.is_empty(), "no LCO here fires before poison");
            registered += 1;
        }
        let fault = Fault::new(FaultCause::Panic, ActionId::of("p/dead"), gid, "x");
        // Poison releases every registered waiter exactly once, each with
        // the fault.
        let acts = lco.poison(fault.clone());
        prop_assert_eq!(acts.len(), registered);
        for (_, v) in &acts {
            prop_assert_eq!(v.fault().unwrap(), fault.clone());
        }
        // A second poison releases nothing (exactly-once).
        prop_assert!(lco.poison(fault.clone()).is_empty());
        prop_assert!(lco.is_poisoned());
        // Every future waiter resolves immediately with the same fault.
        for &k in &after {
            let acts = if kind == 4 {
                lco.acquire(mk_waiter(k)).unwrap()
            } else {
                lco.add_waiter(mk_waiter(k))
            };
            prop_assert_eq!(acts.len(), 1);
            prop_assert_eq!(acts[0].1.fault().unwrap(), fault.clone());
        }
    }

    #[test]
    fn fault_values_roundtrip_the_wire(
        cause in 0u8..5,
        action in any::<u64>(),
        dest in any::<u64>(),
        msg in "[ -~]{0,64}",
    ) {
        use parallex::core::error::{Fault, FaultCause};
        let f = Fault::new(FaultCause::from_code(cause), ActionId(action), Gid(dest), msg);
        let p = Parcel::new(
            Gid::new(LocalityId(0), GidKind::Lco, 1),
            ActionId::of("sys/lco_set"),
            Value::error(&f),
            Continuation::none(),
        );
        let q = Parcel::decode(&p.encode()).unwrap();
        prop_assert!(q.payload.is_fault());
        prop_assert_eq!(q.payload.fault().unwrap(), f);
    }

    // ---- hierarchical processes ---------------------------------------------

    /// Quiescence of a random subprocess tree can never be observed with
    /// work still in flight: while a hostage task blocks somewhere in the
    /// tree the root's done-future must not fire, and once the root
    /// reports quiescence every task of every descendant has completed.
    #[test]
    fn hierarchical_quiescence_never_observes_zero_with_work_in_flight(
        fanouts in proptest::collection::vec(1usize..3, 0..3),
        tasks_per_node in 1usize..4,
        hostage_depth_pick in 0usize..100,
    ) {
        use parallex::core::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let finished = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Arc::new(parking_lot::Mutex::new(release_rx));

        // Build a chain-of-subprocess tree: level i has `fanouts[i]`
        // children per node is overkill at proptest scale, so each level
        // is one node wide with `fanouts[i]` sibling leaves.
        let root = rt.create_process(LocalityId(0));
        let mut chain = vec![root];
        for &width in &fanouts {
            let parent = *chain.last().unwrap();
            let child = parent.create_subprocess(&rt, LocalityId(1)).unwrap();
            for _ in 1..width {
                // Extra siblings quiesce on their own.
                let sib = parent.create_subprocess(&rt, LocalityId(0)).unwrap();
                sib.finish_root(&rt);
            }
            chain.push(child);
        }
        let mut total = 0u64;
        for proc in &chain {
            for l in 0..2u16 {
                for _ in 0..tasks_per_node {
                    let f = finished.clone();
                    proc.spawn_at(&rt, LocalityId(l), move |_ctx| {
                        f.fetch_add(1, Ordering::SeqCst);
                    });
                    total += 1;
                }
            }
        }
        // One hostage task somewhere in the chain keeps the tree live
        // until the driver releases it.
        let hostage_holder = chain[hostage_depth_pick % chain.len()];
        let rx = release_rx.clone();
        hostage_holder.spawn_at(&rt, LocalityId(0), move |_ctx| {
            rx.lock().recv().unwrap();
        });
        for proc in &chain {
            proc.finish_root(&rt);
        }
        // In flight (the hostage is provably unreleased): the root must
        // not report quiescence.
        let early = root
            .done_future()
            .wait_timeout(&rt, std::time::Duration::from_millis(5))
            .unwrap();
        prop_assert!(early.is_none(), "quiescence observed with work in flight");
        release_tx.send(()).unwrap();
        root.done_future()
            .wait_timeout(&rt, std::time::Duration::from_secs(10))
            .unwrap()
            .expect("root quiesced after release");
        // Zero observed ⇒ all work done, at every level.
        prop_assert_eq!(finished.load(Ordering::SeqCst), total);
        for proc in &chain {
            prop_assert_eq!(proc.active(&rt), 0);
        }
        rt.shutdown();
    }

    /// Cancelling a process releases every waiter kind exactly once with
    /// the cancellation fault: external OS threads blocked on owned
    /// futures, depleted threads suspended on them, and done-future
    /// waiters — no waiter hangs and none fires twice. A one-shot future
    /// has one reader, fault or value, so each reader waits on a
    /// process-owned future of its own.
    #[test]
    fn cancel_releases_every_waiter_kind_exactly_once(
        externals in 1usize..4,
        depleted in 1usize..4,
        done_waiters in 1usize..3,
    ) {
        use parallex::core::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let rt = Arc::new(RuntimeBuilder::new(Config::small(2, 1)).build().unwrap());
        let proc = rt.create_process(LocalityId(0));
        let resumed = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let r2 = resumed.clone();
        let (n_ext, n_dep) = (externals, depleted);
        proc.spawn_at(&rt, LocalityId(0), move |ctx| {
            for _ in 0..n_dep {
                let fut = ctx.new_future::<u64>(); // process-owned
                let r = r2.clone();
                ctx.when_resolved(fut, move |_ctx, out| {
                    assert!(out.is_err(), "cancel delivers a fault, not a value");
                    r.fetch_add(1, Ordering::SeqCst);
                });
            }
            let ext: Vec<FutureRef<u64>> = (0..n_ext).map(|_| ctx.new_future()).collect();
            tx.send(ext).unwrap();
        });
        let futs = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        proc.finish_root(&rt);
        let ext: Vec<_> = futs
            .into_iter()
            .map(|fut| {
                let rt = rt.clone();
                std::thread::spawn(move || fut.wait_timeout(&rt, Duration::from_secs(10)))
            })
            .collect();
        let dones: Vec<_> = (0..done_waiters)
            .map(|_| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    proc.done_future().wait_timeout(&rt, Duration::from_secs(10))
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        proc.cancel(&rt);
        proc.cancel(&rt); // idempotent: second cancel releases nothing new
        for h in ext {
            // Exactly once: the single wait() call returns the fault.
            let f = match h.join().unwrap() {
                Err(PxError::Fault(f)) => f,
                other => panic!("external waiter got {other:?}"),
            };
            prop_assert_eq!(f.cause, FaultCause::Cancelled);
        }
        for h in dones {
            match h.join().unwrap() {
                Err(PxError::Fault(f)) => prop_assert_eq!(f.cause, FaultCause::Cancelled),
                other => panic!("done waiter got {other:?}"),
            }
        }
        // Every depleted thread resumed (with the fault) exactly once.
        let t0 = std::time::Instant::now();
        while resumed.load(Ordering::SeqCst) < depleted as u64 {
            prop_assert!(
                t0.elapsed() < Duration::from_secs(10),
                "depleted threads never resumed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(2));
        prop_assert_eq!(resumed.load(Ordering::SeqCst), depleted as u64);
        rt.shutdown();
    }

    // ---- AGAS ---------------------------------------------------------------

    #[test]
    fn agas_directory_is_authoritative(
        moves in proptest::collection::vec(0u16..8, 0..20),
    ) {
        let agas = Agas::new(8);
        let g = Gid::new(LocalityId(3), GidKind::Data, 1);
        let mut expected = LocalityId(3);
        for m in moves {
            agas.record_migration(g, LocalityId(m));
            expected = LocalityId(m);
        }
        prop_assert_eq!(agas.authoritative_owner(g), expected);
        // A fresh locality (cold cache) resolves to the authority.
        let r = agas.resolve(LocalityId(7), g);
        prop_assert_eq!(r.owner, expected);
    }

    /// Home-based convergence across simulated ranks: one `Agas`
    /// instance per rank, written exactly as the cross-rank protocol
    /// writes them — destination at install, source at finalize, the
    /// home rank via `DIR_UPDATE`, random bystanders via repair hints.
    /// From any rank, the chase (first hop on the sender's cached
    /// resolution, then each rank's directory; a rank that believes
    /// itself owner without holding the object asks the home rank)
    /// reaches the true owner in at most one hop per rank — every
    /// directory entry points at the owner as of its own write time, so
    /// the chain only moves forward through the migration history.
    #[test]
    fn home_based_directory_converges_from_any_rank(
        moves in proptest::collection::vec(
            (0u16..6, proptest::collection::vec(any::<bool>(), 6..7)),
            1..24,
        ),
    ) {
        const RANKS: u16 = 6;
        let home = 2u16;
        let ranks: Vec<Agas> = (0..RANKS).map(|_| Agas::new(RANKS as usize)).collect();
        let g = Gid::new(LocalityId(home), GidKind::Data, 9);
        let mut owner = home;
        for (to, hints) in moves {
            if to != owner {
                ranks[to as usize].record_migration(g, LocalityId(to)); // install
                ranks[owner as usize].record_migration(g, LocalityId(to)); // finalize
                ranks[home as usize].record_migration(g, LocalityId(to)); // DIR_UPDATE
                owner = to;
            }
            for (r, hint) in hints.iter().enumerate() {
                if *hint {
                    ranks[r].repair_cache(LocalityId(r as u16), g, LocalityId(owner));
                }
            }
        }
        // The home rank's entry is cluster-authoritative at all times.
        prop_assert_eq!(ranks[home as usize].authoritative_owner(g), LocalityId(owner));
        for start in 0..RANKS {
            // Sender side: route on the cached resolution.
            let mut cur = ranks[start as usize].resolve(LocalityId(start), g).owner.0;
            let mut hops = 0u32;
            while cur != owner {
                // Receiver side: the object is absent, forward on this
                // rank's directory — or ask home when the rank believes
                // the object should be here (`remote_dir_lookup`).
                let view = ranks[cur as usize].authoritative_owner(g).0;
                cur = if view == cur {
                    ranks[home as usize].authoritative_owner(g).0
                } else {
                    view
                };
                hops += 1;
                prop_assert!(
                    hops <= u32::from(RANKS),
                    "chase from rank {} did not converge", start
                );
            }
        }
    }

    // ---- histogram -----------------------------------------------------------

    #[test]
    fn histogram_quantiles_bracket_samples(
        xs in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut h = parallex::sim::Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let lo = *xs.iter().min().unwrap() as f64;
        let hi = *xs.iter().max().unwrap() as f64;
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            let v = h.quantile(q);
            // Bucketed estimates stay within a factor-2 envelope of range.
            prop_assert!(v >= (lo / 2.0).floor(), "q{q} = {v} < {lo}");
            prop_assert!(v <= (hi * 2.0).ceil(), "q{q} = {v} > {hi}");
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
    }

    // ---- Morton / AMR ----------------------------------------------------------

    #[test]
    fn morton_is_injective(a in 0u32..4096, b in 0u32..4096, c in 0u32..4096, d in 0u32..4096) {
        prop_assume!((a, b) != (c, d));
        prop_assert_ne!(
            parallex::workloads::amr::morton2(a, b),
            parallex::workloads::amr::morton2(c, d)
        );
    }

    // ---- graphs ------------------------------------------------------------------

    #[test]
    fn csr_preserves_edges(n in 2usize..50, edges in proptest::collection::vec((0u32..40, 0u32..40), 0..100)) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(s, t)| (s % n as u32, t % n as u32))
            .collect();
        let g = parallex::workloads::graphs::Graph::from_edges(n, &edges);
        prop_assert_eq!(g.edges(), edges.len());
        // Every edge is findable from its source.
        for &(s, t) in &edges {
            prop_assert!(g.neighbors(s).contains(&t));
        }
    }

    // ---- metrics histograms ----------------------------------------------

    #[test]
    fn histogram_merge_is_order_invariant_and_lossless(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        use parallex::core::metrics::{Histogram, HistogramSnapshot};
        let (ha, hb) = (Histogram::default(), Histogram::default());
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let mut ab = HistogramSnapshot::default();
        ab.merge(&sa);
        ab.merge(&sb);
        let mut ba = HistogramSnapshot::default();
        ba.merge(&sb);
        ba.merge(&sa);
        // Commutative...
        prop_assert_eq!(&ab, &ba);
        // ...and lossless: every bucket count is the exact sum, no
        // sample moved buckets and none vanished.
        prop_assert_eq!(ab.count, (a.len() + b.len()) as u64);
        for (i, &c) in ab.cells.iter().enumerate() {
            prop_assert_eq!(c, sa.cells[i] + sb.cells[i], "cell {} drifted", i);
        }
    }

    #[test]
    fn histogram_quantiles_bound_recorded_values(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        q_milli in 0u32..1001,
    ) {
        use parallex::core::metrics::{bucket_bound, bucket_index, Histogram};
        let q = f64::from(q_milli) / 1000.0;
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let reported = s.quantile(q);
        // The reported quantile is some bucket's inclusive upper bound,
        // and at least ceil(q * n) recorded values fall at or below it
        // (the defining property of a percentile estimate that rounds up
        // to its bucket boundary).
        let rank = ((q * values.len() as f64).ceil() as u64).clamp(1, values.len() as u64);
        let at_or_below = values.iter().filter(|&&v| v <= reported).count() as u64;
        prop_assert!(at_or_below >= rank, "q={} reported={} covers {}/{}", q, reported, at_or_below, rank);
        // And every recorded value sits within its own bucket's bound.
        for &v in &values {
            prop_assert!(v <= bucket_bound(bucket_index(v)));
        }
    }

    // ---- Data Vortex ----------------------------------------------------------------

    #[test]
    fn vortex_delivers_everything_small(
        packets in proptest::collection::vec((0u64..50, 0usize..8, 0usize..8), 1..40),
    ) {
        let inj: Vec<parallex::datavortex::traffic::Injection> = packets
            .into_iter()
            .map(|(cycle, src, dst)| parallex::datavortex::traffic::Injection { cycle, src, dst })
            .collect();
        let cfg = parallex::datavortex::vortex::VortexConfig { levels: 3, angles: 4 };
        let s = parallex::datavortex::vortex::simulate(cfg, &inj, 200_000);
        prop_assert_eq!(s.delivered, s.injected, "lost packets");
    }
}

fn px_roundtrip<T>(x: &T) -> Result<Vec<u8>, String>
where
    T: Serialize + for<'a> Deserialize<'a> + PartialEq + std::fmt::Debug,
{
    let bytes = parallex::wire::to_bytes(x).map_err(|e| e.to_string())?;
    let back: T = parallex::wire::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if &back != x {
        return Err(format!("roundtrip mismatch: {x:?} vs {back:?}"));
    }
    Ok(bytes)
}
