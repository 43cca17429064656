//! Fault-propagation integration tests: every parcel-death path must
//! resolve downstream waiters with a `PxError::Fault` within a bounded
//! wait instead of hanging them forever. Each test here deadlocked (or
//! timed out) before faults became first-class values.

use parallex::core::parcel::ContStep;
use parallex::core::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Generous bound: a genuine hang hits this, a delivered fault never does.
const BOUND: Duration = Duration::from_secs(10);

struct Add;
impl Action for Add {
    const NAME: &'static str = "faults/add";
    type Args = (u64, u64);
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (a, b): (u64, u64)) -> u64 {
        a + b
    }
}

struct Boom;
impl Action for Boom {
    const NAME: &'static str = "faults/boom";
    type Args = ();
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, _args: ()) -> u64 {
        panic!("boom: deliberate test panic");
    }
}

fn rt(locs: usize) -> Runtime {
    RuntimeBuilder::new(Config::small(locs, 1))
        .register::<Add>()
        .register::<Boom>()
        .build()
        .unwrap()
}

fn expect_fault<T: std::fmt::Debug>(r: PxResult<Option<T>>) -> Fault {
    match r {
        Err(PxError::Fault(f)) => f,
        Ok(None) => panic!("timed out: fault was never delivered (the old hang)"),
        other => panic!("expected fault, got {other:?}"),
    }
}

/// A parcel whose object is absent at an owner whose directory is
/// authoritative dies at once, without a chase: a fetch of a data GID
/// that was never created, and a late `LCO_SET` to a one-shot future its
/// one read freed, each fault their waiter after one dispatch at the
/// owner, as the `NoSuchObject` handler error a freed LCO's local event
/// dies of.
#[test]
fn an_absent_object_faults_its_waiter_after_one_dispatch() {
    let rt = rt(2);
    let dispatched = |rt: &Runtime| rt.stats().localities[0].parcels_recv;
    let bogus = Gid::new(LocalityId(0), GidKind::Data, 0x00C0FFEE);
    let fut = rt.run_blocking(LocalityId(1), move |ctx| ctx.fetch_data(bogus));
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!((f.cause, f.dest), (FaultCause::HandlerError, bogus));
    assert_eq!(dispatched(&rt), 1);

    let freed = rt.new_future::<u64>(LocalityId(0));
    rt.set_future(freed, &1).unwrap();
    assert_eq!(rt.wait_future_timeout(freed, BOUND).unwrap(), Some(1));
    let waiter = rt.new_future::<()>(LocalityId(1));
    let cont = Continuation::set(waiter.gid());
    rt.run_blocking(LocalityId(1), move |ctx| {
        let set = ActionId::of("__sys/lco_set");
        ctx.send_parcel(Parcel::new(freed.gid(), set, Value::unit(), cont))
    });
    let f = expect_fault(rt.wait_future_timeout(waiter, BOUND));
    assert_eq!((f.cause, f.dest), (FaultCause::HandlerError, freed.gid()));
    assert_eq!(dispatched(&rt), 2);

    let total = rt.stats().total();
    assert_eq!((total.dead_parcels, total.dead_handler_error), (2, 2));
    assert_eq!((total.chase_hops_total, total.dead_hop_cap), (0, 0));
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    rt.shutdown();
}

/// The hop cap: a parcel whose budget is spent reaches a rank that a
/// stale cache still names, and dies there instead of forwarding.
#[test]
fn a_parcel_out_of_hops_dies_at_the_stale_owner() {
    let rt = rt(3);
    let (l0, l1, l2) = (LocalityId(0), LocalityId(1), LocalityId(2));
    let x = rt.new_data_at(l0, vec![1]);
    rt.migrate_data(x, l1).unwrap();
    // Locality 2 learns "x is at 1", and the object moves back home.
    let read = rt.run_blocking(l2, move |ctx| ctx.fetch_data(x));
    assert_eq!(rt.wait_future_timeout(read, BOUND).unwrap(), Some(vec![1]));
    rt.migrate_data(x, l0).unwrap();
    let fut = rt.new_future::<Vec<u8>>(l0);
    let cont = Continuation::set(fut.gid());
    rt.run_blocking(l2, move |ctx| {
        let mut p = Parcel::new(x, ActionId::of("__sys/data_get"), Value::unit(), cont);
        p.hops = u8::MAX;
        ctx.send_parcel(p)
    });
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!((f.cause, f.dest), (FaultCause::HopCap, x));
    assert!(f.message.contains("chase exhausted"), "{}", f.message);
    assert_eq!(rt.stats().localities[1].chase_cap_violations, 1);
    rt.shutdown();
}

#[test]
fn panicking_action_faults_the_waiter() {
    let rt = rt(2);
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Boom>(
        Gid::locality_root(LocalityId(1)),
        (),
        Continuation::set(fut.gid()),
    )
    .unwrap();
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::Panic);
    assert!(
        f.message.contains("boom"),
        "panic message must ride the fault: {f:?}"
    );
    let total = rt.stats().total();
    assert_eq!(total.dead_panic, 1);
    assert_eq!(total.panics, 1);
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    rt.shutdown();
}

#[test]
fn unknown_action_faults_the_waiter() {
    let rt = rt(2);
    let fut = rt.new_future::<u64>(LocalityId(0));
    let gid = fut.gid();
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.send_parcel(Parcel::new(
            Gid::locality_root(LocalityId(1)),
            ActionId::of("faults/not_registered"),
            Value::unit(),
            Continuation::set(gid),
        ));
    });
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::UnknownAction);
    assert_eq!(f.action, ActionId::of("faults/not_registered"));
    assert_eq!(rt.stats().total().dead_unknown_action, 1);
    rt.shutdown();
}

#[test]
fn undecodable_args_fault_the_waiter() {
    let rt = rt(2);
    let fut = rt.new_future::<u64>(LocalityId(0));
    let gid = fut.gid();
    rt.run_blocking(LocalityId(0), move |ctx| {
        // One lonely byte can never decode as (u64, u64): the handler
        // errors before executing and the error must reach the future.
        ctx.send_parcel(Parcel::new(
            Gid::locality_root(LocalityId(1)),
            Add::id(),
            Value::from_bytes(vec![7]),
            Continuation::set(gid),
        ));
    });
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::Decode);
    assert_eq!(rt.stats().total().dead_decode, 1);
    rt.shutdown();
}

/// Single assignment, then one reader: a second trigger before the read
/// is nacked; the read frees the future, so a second read finds nothing
/// and a late trigger dies as a counted `NoSuchObject`.
#[test]
fn double_trigger_ack_carries_the_error() {
    let (rt, reports) = rt_reporting(1);
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.set_future(fut, &1).unwrap();
    // A second (data-carrying) LCO_SET violates single assignment. The
    // ack continuation must receive the error, not a unit "success".
    let ack = rt.new_future::<()>(LocalityId(0));
    let (fut_gid, ack_gid) = (fut.gid(), ack.gid());
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.send_parcel(Parcel::new(
            fut_gid,
            parallex::core::sys::LCO_SET,
            Value::encode(&2u64).unwrap(),
            Continuation::set(ack_gid),
        ));
    });
    let f = expect_fault(rt.wait_future_timeout(ack, BOUND));
    assert_eq!(f.cause, FaultCause::HandlerError);
    assert!(f.message.contains("already triggered"), "{f:?}");
    assert!(next_fault_at(&reports, fut.gid())
        .message
        .contains("already triggered"));
    // The future's observed value is untouched by the failed overwrite,
    // and reading it frees it: the second read finds nothing.
    assert_eq!(fut.wait(&rt).unwrap(), 1);
    match fut.wait(&rt) {
        Err(PxError::NoSuchObject(g)) => assert_eq!(g, fut.gid()),
        other => panic!("a second read must find nothing, got {other:?}"),
    }
    // A late trigger delivered in place — the LCO's home is where the
    // caller is, so there is no parcel and nobody to tell — is counted.
    rt.set_future(fut, &3).unwrap();
    let late = next_fault_at(&reports, fut.gid());
    assert!(late.message.contains("no such object"), "{late}");
    let total = rt.stats().total();
    assert_eq!((total.dead_parcels, total.dead_handler_error), (2, 2));
    rt.shutdown();
}

#[test]
fn poison_propagates_through_reduction_chains() {
    let rt = rt(2);
    // A reduction expecting 3 contributions: two healthy, one from an
    // action that panics. The fault must poison the reduction and reach
    // the driver — under the old semantics the reduce hung at 2/3.
    let sum = rt
        .new_reduce::<u64>(
            LocalityId(0),
            3,
            &0,
            Box::new(|a, b| {
                let x: u64 = a.decode().unwrap();
                let y: u64 = b.decode().unwrap();
                Value::encode(&(x + y)).unwrap()
            }),
        )
        .unwrap();
    rt.send_action::<Add>(
        Gid::locality_root(LocalityId(1)),
        (1, 2),
        Continuation::contribute(sum.gid()),
    )
    .unwrap();
    rt.send_action::<Add>(
        Gid::locality_root(LocalityId(1)),
        (3, 4),
        Continuation::contribute(sum.gid()),
    )
    .unwrap();
    rt.send_action::<Boom>(
        Gid::locality_root(LocalityId(1)),
        (),
        Continuation::contribute(sum.gid()),
    )
    .unwrap();
    let f = expect_fault(rt.wait_future_timeout(sum, BOUND));
    assert_eq!(f.cause, FaultCause::Panic);
    rt.shutdown();
}

#[test]
fn fault_short_circuits_call_chains() {
    let rt = rt(2);
    // Boom's fault flows through a Call step (whose action must NOT run
    // on fault bytes) and still poisons the final future in the chain.
    let fut = rt.new_future::<u64>(LocalityId(0));
    let cont = Continuation {
        steps: vec![
            ContStep::Call {
                action: Add::id(),
                target: Gid::locality_root(LocalityId(0)),
            },
            ContStep::SetLco(fut.gid()),
        ],
    };
    rt.send_action::<Boom>(Gid::locality_root(LocalityId(1)), (), cont)
        .unwrap();
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::Panic, "origin cause preserved: {f:?}");
    rt.shutdown();
}

#[test]
fn dead_letter_hook_observes_every_fault() {
    let seen: Arc<Mutex<Vec<Fault>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    let rt = RuntimeBuilder::new(Config::small(2, 1))
        .register::<Boom>()
        .on_dead_letter(move |f| sink.lock().push(f.clone()))
        .build()
        .unwrap();
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Boom>(
        Gid::locality_root(LocalityId(1)),
        (),
        Continuation::set(fut.gid()),
    )
    .unwrap();
    expect_fault(rt.wait_future_timeout(fut, BOUND));
    let faults = seen.lock().clone();
    assert_eq!(faults.len(), 1, "exactly one dead letter: {faults:?}");
    assert_eq!(faults[0].cause, FaultCause::Panic);
    assert_eq!(faults[0].action, Boom::id());
    rt.shutdown();
}

/// A runtime whose dead-letter hook forwards every fault to a channel,
/// so a test can wait for the report instead of sleeping.
fn rt_reporting(locs: usize) -> (Runtime, std::sync::mpsc::Receiver<Fault>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = Mutex::new(tx);
    let rt = RuntimeBuilder::new(Config::small(locs, 1))
        .register::<Boom>()
        .on_dead_letter(move |f| {
            let _ = tx.lock().send(f.clone());
        })
        .build()
        .unwrap();
    (rt, rx)
}

/// The next reported fault addressed at `dest` (`BOUND` is a hang guard).
fn next_fault_at(rx: &std::sync::mpsc::Receiver<Fault>, dest: Gid) -> Fault {
    loop {
        let f = rx.recv_timeout(BOUND).expect("fault was never reported");
        if f.dest == dest {
            return f;
        }
    }
}

#[test]
fn poisoned_semaphore_never_grants_its_critical_section() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (rt, reports) = rt_reporting(1);
    // Zero permits: every acquire queues.
    let sem = rt.new_semaphore(LocalityId(0), 0);
    let ran = Arc::new(AtomicBool::new(false));
    let flag = ran.clone();
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.acquire(sem, move |_| flag.store(true, Ordering::SeqCst));
    });
    // Poison the semaphore: a panicking producer's fault is delivered to
    // it as the continuation target.
    rt.send_action::<Boom>(
        Gid::locality_root(LocalityId(0)),
        (),
        Continuation::set(sem),
    )
    .unwrap();
    // The poison must surface loudly to value waiters…
    let f = expect_fault(match rt.wait_value(sem) {
        Ok(v) => Ok(Some(v)),
        Err(e) => Err(e),
    });
    assert_eq!(f.cause, FaultCause::Panic);
    // …while the queued acquirer's critical section must NOT run as if a
    // permit were granted (that would break mutual exclusion silently):
    // its continuation is dropped, and the drop is reported.
    let dropped = next_fault_at(&reports, sem);
    assert_eq!(dropped.cause, FaultCause::Panic);
    assert!(
        !ran.load(Ordering::SeqCst),
        "poison must not admit a critical section"
    );
    rt.shutdown();
}

/// `when_resolved` promises the continuation always runs. Asked about a
/// gid that is not an LCO, the local arm used to drop it silently while
/// the remote arm delivered a fault; both must deliver the same one.
#[test]
fn when_resolved_on_a_data_object_faults_from_either_side() {
    let rt = rt(2);
    let data = rt.new_data_at(LocalityId(0), vec![1, 2, 3]);
    for (at, deaths) in [(LocalityId(0), 1), (LocalityId(1), 2)] {
        let (tx, rx) = std::sync::mpsc::channel();
        rt.run_blocking(at, move |ctx| {
            ctx.when_resolved(FutureRef::<u64>::from_gid(data), move |_, r| {
                let _ = tx.send(r);
            });
        });
        let r = rx.recv_timeout(BOUND).expect("continuation never ran");
        let f = expect_fault(r.map(Some));
        assert_eq!(f.cause, FaultCause::HandlerError, "from {at:?}: {f}");
        assert_eq!(f.dest, data);
        assert!(f.message.contains("wrong kind"), "from {at:?}: {f}");
        let total = rt.stats().total();
        assert_eq!(total.dead_parcels, deaths, "from {at:?}");
        assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
        // Only a one-shot LCO is freed by its read: the data object the
        // failed read named is still resident where it lives.
        let local = rt.run_blocking(LocalityId(0), move |ctx| ctx.read_local_data(data));
        assert_eq!(local.unwrap(), vec![1, 2, 3], "from {at:?}");
    }
    rt.shutdown();
}

/// `acquire` on an LCO that is not a semaphore grants nothing: the body
/// never runs, one death is counted, and the hook hears of the death and
/// of the dropped continuation.
#[test]
fn acquire_on_a_future_never_runs_the_body() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (rt, reports) = rt_reporting(1);
    let fut = rt.new_future::<u64>(LocalityId(0)).gid();
    let ran = Arc::new(AtomicBool::new(false));
    let flag = ran.clone();
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.acquire(fut, move |_| flag.store(true, Ordering::SeqCst));
    });
    let death = next_fault_at(&reports, fut);
    assert_eq!(death.cause, FaultCause::HandlerError);
    assert!(death.message.contains("wrong kind"), "{death}");
    let dropped = next_fault_at(&reports, fut);
    assert!(dropped.message.contains("dropped"), "{dropped}");
    assert!(
        !ran.load(Ordering::SeqCst),
        "no permit, no critical section"
    );
    assert_eq!(rt.stats().total().dead_parcels, 1);
    rt.shutdown();
    assert!(reports.try_recv().is_err(), "exactly two reports");
}

#[test]
fn zero_count_gates_fire_immediately() {
    let rt = rt(1);
    let gate = rt.new_and_gate(LocalityId(0), 0);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    assert!(rt.wait_future_timeout(gate_fut, BOUND).unwrap().is_some());
    // A late unit trigger on the pre-fired gate must not underflow/error.
    rt.trigger(gate, &()).unwrap();
    let red = rt
        .new_reduce::<u64>(LocalityId(0), 0, &17, Box::new(|a, _| a))
        .unwrap();
    assert_eq!(rt.wait_future_timeout(red, BOUND).unwrap(), Some(17));
    let total = rt.stats().total();
    assert_eq!(total.dead_parcels, 0, "no deaths on the zero-count path");
    rt.shutdown();
}

/// A death hands the traced dead-letter hook the route its parcel took:
/// a fetch sent on a stale cache is forwarded once, to the object's
/// home, where the object was freed, and dies there — the send at the
/// caller, the forward (hop 1) at the stale owner and the kill, with its
/// cause code, at the home, under the dying trace alone — in that order
/// in the dump, although three localities' rings recorded them.
#[test]
fn traced_death_of_a_freed_object_reports_its_route() {
    let captured: Arc<Mutex<Option<(Fault, TraceDump)>>> = Arc::new(Mutex::new(None));
    let sink = captured.clone();
    let rt = RuntimeBuilder::new(Config::small(3, 1).with_trace_sampling(1))
        .on_dead_letter_traced(move |f, d| {
            sink.lock().get_or_insert_with(|| (f.clone(), d.clone()));
        })
        .build()
        .unwrap();
    let (l0, l1, l2) = (LocalityId(0), LocalityId(1), LocalityId(2));
    let x = rt.new_data_at(l0, vec![1]);
    rt.migrate_data(x, l1).unwrap();
    // Locality 2 learns "x is at 1"; x moves home and is freed there.
    let read = rt.run_blocking(l2, move |ctx| ctx.fetch_data(x));
    assert_eq!(rt.wait_future_timeout(read, BOUND).unwrap(), Some(vec![1]));
    rt.migrate_data(x, l0).unwrap();
    assert!(rt.run_blocking(l0, move |ctx| ctx.locality().remove(x).is_some()));
    let fut = rt.run_blocking(l2, move |ctx| ctx.fetch_data(x));
    expect_fault(rt.wait_future_timeout(fut, BOUND));
    let (fault, dump) = captured
        .lock()
        .take()
        .expect("traced dead-letter hook observed the death");
    assert_eq!((fault.cause, fault.dest), (FaultCause::HandlerError, x));
    assert_eq!(
        dump.trace_ids().len(),
        1,
        "the captured slice is exactly the dying trace: {}",
        dump.render()
    );
    let route: Vec<(TraceEventKind, u16, u64)> = dump
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::ParcelSend
                    | TraceEventKind::ParcelForward
                    | TraceEventKind::ParcelKill
            )
        })
        .map(|e| (e.kind, e.locality, e.aux))
        .collect();
    let kill = u64::from(FaultCause::HandlerError.code());
    assert_eq!(
        route,
        [
            (TraceEventKind::ParcelSend, 2, 1),
            (TraceEventKind::ParcelForward, 1, 1),
            (TraceEventKind::ParcelKill, 0, kill),
        ],
        "one send, one forward, one kill, in dump order:\n{}",
        dump.render()
    );
    rt.shutdown();
}

/// Send a raw system parcel from a PX-thread at locality 0, its
/// continuation filling a fresh future there.
fn sys_request(rt: &Runtime, dest: Gid, action: &'static str, payload: Value) -> FutureRef<()> {
    let fut = rt.new_future::<()>(LocalityId(0));
    let cont = Continuation::set(fut.gid());
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.send_parcel(Parcel::new(dest, ActionId::of(action), payload, cont))
    });
    fut
}

/// A parcel's continuation is applied whatever its action: the handlers
/// that used to assume "this kind carries none" — `noop`, gossip with the
/// balancer off and after a merge, a successful contribution — dropped
/// it, and a future behind it hung with `dead_parcels` still 0.
#[test]
fn every_system_action_resolves_the_continuation_it_carries() {
    let rt = rt(2);
    let l1 = Gid::locality_root(LocalityId(1));
    for action in ["__sys/noop", "__sys/balance_gossip"] {
        let fut = sys_request(&rt, l1, action, Value::unit());
        let got = rt.wait_future_timeout(fut, BOUND).unwrap();
        assert_eq!(got, Some(()), "{action}: continuation dropped");
    }
    let sum = rt
        .new_reduce::<u64>(LocalityId(1), 1, &0, Box::new(|_, b| b))
        .unwrap();
    let seven = Value::encode(&7u64).unwrap();
    let acked = sys_request(&rt, sum.gid(), "__sys/lco_contribute", seven);
    assert_eq!(rt.wait_future_timeout(acked, BOUND).unwrap(), Some(()));
    assert_eq!(rt.wait_future_timeout(sum, BOUND).unwrap(), Some(7));
    assert_eq!(rt.stats().total().dead_parcels, 0);
    rt.shutdown();

    // With the balancer on, a gossip parcel that merges completes too
    // (`[0]`: a view of zero peers), and one that does not decode dies.
    let cfg = Config::small(2, 1).with_balance(BalanceConfig::adaptive());
    let rt = RuntimeBuilder::new(cfg).build().unwrap();
    let merged = sys_request(&rt, l1, "__sys/balance_gossip", Value::from_bytes(vec![0]));
    assert_eq!(rt.wait_future_timeout(merged, BOUND).unwrap(), Some(()));
    let torn = sys_request(&rt, l1, "__sys/balance_gossip", Value::unit());
    let f = expect_fault(rt.wait_future_timeout(torn, BOUND));
    assert_eq!(f.cause, FaultCause::Decode);
    rt.shutdown();
}

/// Every `__sys` action with a structured payload kills a parcel it
/// cannot decode under `Decode`, and the fault reaches the continuation.
#[test]
fn undecodable_system_payloads_fault_the_waiter() {
    let rt = rt(2);
    let l1 = Gid::locality_root(LocalityId(1));
    let structured = [
        "__sys/lco_set_slot",
        "__sys/echo_prop",
        "__sys/echo_validate",
        "__sys/agas_migrate",
        "__sys/dir_install",
        "__sys/dir_update",
        "__sys/dir_lookup",
        "__sys/dir_repair",
        "__sys/dir_commit",
    ];
    for action in structured {
        let fut = sys_request(&rt, l1, action, Value::unit());
        let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
        assert_eq!(f.cause, FaultCause::Decode, "{action}");
        assert_eq!(f.action, ActionId::of(action));
    }
    // `data_put` decodes its own payload, once the object is found.
    let data = rt.new_data_at(LocalityId(1), vec![1, 2, 3]);
    let fut = sys_request(&rt, data, "__sys/data_put", Value::unit());
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::Decode);
    assert_eq!(rt.read_data(data).unwrap(), vec![1, 2, 3]);
    // A migration to a rank that does not exist is a handler error.
    let nowhere = Value::from_bytes(vec![9, 0, 0]);
    let fut = sys_request(&rt, data, "__sys/agas_migrate", nowhere);
    let f = expect_fault(rt.wait_future_timeout(fut, BOUND));
    assert_eq!(f.cause, FaultCause::HandlerError);
    let total = rt.stats().total();
    assert_eq!(total.dead_decode, structured.len() as u64 + 1);
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    rt.shutdown();
}

/// Transport contract point 4, for the run queues: `shutdown` lets the
/// workers run dry — what was queued before their last look runs — and
/// what reaches a locality afterwards is abandoned: not run, not
/// dead-lettered, and no complaint from the debug-build spend check when
/// the queues are torn down with the parcels still in them.
#[test]
fn shutdown_runs_what_is_queued_and_abandons_what_arrives_after() {
    let rt = Arc::new(rt(1));
    let here = Gid::locality_root(LocalityId(0));
    let fire = |n: u64| {
        for _ in 0..n {
            rt.send_action::<Add>(here, (1, 2), Continuation::none())
                .unwrap();
        }
    };
    // Hold the one worker, queue five parcels behind it, start the
    // shutdown, then let the worker go: it drains before it exits.
    let (hold, held) = std::sync::mpsc::channel::<()>();
    rt.spawn_at(LocalityId(0), move |_| held.recv().unwrap());
    fire(5);
    let stopper = {
        let rt = rt.clone();
        std::thread::spawn(move || rt.shutdown())
    };
    hold.send(()).unwrap();
    stopper.join().unwrap();
    assert_eq!(rt.stats().total().parcels_recv, 5);
    // Nobody is left to run these.
    fire(3);
    let total = rt.stats().total();
    assert_eq!(total.parcels_sent, 8);
    assert_eq!((total.parcels_recv, total.dead_parcels), (5, 0));
    rt.shutdown();
}

#[test]
fn healthy_workloads_see_no_faults() {
    // The off-path guarantee: a non-failing workload's stats show zero
    // deaths in every cause bucket, and results are unchanged.
    let rt = rt(3);
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Add>(
        Gid::locality_root(LocalityId(2)),
        (40, 2),
        Continuation::set(fut.gid()),
    )
    .unwrap();
    assert_eq!(fut.wait(&rt).unwrap(), 42);
    let total = rt.stats().total();
    assert_eq!(total.dead_parcels, 0);
    assert_eq!(total.deaths_by_cause_total(), 0);
    assert_eq!(total.panics, 0);
    rt.shutdown();
}
