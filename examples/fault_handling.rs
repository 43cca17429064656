//! Failure semantics: dead parcels fail loudly instead of hanging waiters.
//!
//! Every way a parcel can die — panicking action, unknown action, a
//! freed or never-created object, undecodable payload — produces a
//! first-class *fault* delivered along the parcel's continuation chain:
//! futures poison, waiters resolve with `PxError::Fault`, and a
//! dead-letter hook sees every death with its cause.
//!
//! ```sh
//! cargo run --release --example fault_handling
//! ```

use parallex::core::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// An action that always fails: stands in for the crashed handler, bad
/// input, or poisoned state a production system inevitably meets.
struct Flaky;
impl Action for Flaky {
    const NAME: &'static str = "demo/flaky";
    type Args = u64;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        panic!("flaky handler rejected input {n}");
    }
}

fn main() {
    // Collect every fault the runtime raises (production code would log,
    // alert, or push these to a metrics pipeline).
    let dead_letters: Arc<Mutex<Vec<Fault>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = dead_letters.clone();
    let rt = RuntimeBuilder::new(Config::small(2, 1))
        .register::<Flaky>()
        .on_dead_letter(move |f| sink.lock().push(f.clone()))
        .build()
        .expect("boot");

    // 1. A panicking action: the panic message rides the fault to the
    //    driver instead of stranding it on `wait()` forever.
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Flaky>(
        Gid::locality_root(LocalityId(1)),
        7,
        Continuation::set(fut.gid()),
    )
    .unwrap();
    match fut.wait(&rt) {
        Err(PxError::Fault(f)) => {
            assert_eq!(f.cause, FaultCause::Panic);
            println!("panicked action surfaced: {f}");
        }
        other => panic!("expected a fault, got {other:?}"),
    }

    // 2. An unknown action: same contract, different cause.
    let fut2 = rt.new_future::<u64>(LocalityId(0));
    let gid2 = fut2.gid();
    rt.run_blocking(LocalityId(0), move |ctx| {
        ctx.send_parcel(Parcel::new(
            Gid::locality_root(LocalityId(1)),
            ActionId::of("demo/never_registered"),
            Value::unit(),
            Continuation::set(gid2),
        ));
    });
    match rt.wait_future_timeout(fut2, Duration::from_secs(5)) {
        Err(PxError::Fault(f)) => {
            assert_eq!(f.cause, FaultCause::UnknownAction);
            println!("unknown action surfaced: {f}");
        }
        other => panic!("expected a fault, got {other:?}"),
    }

    // 3. A freed/never-created object: its owner's directory says it is
    //    absent, so the parcel dies at once, as a handler error naming
    //    the missing object.
    let bogus = Gid::new(LocalityId(0), GidKind::Data, 0xDEAD);
    let fetch = rt.run_blocking(LocalityId(1), move |ctx| ctx.fetch_data(bogus));
    match rt.wait_future_timeout(fetch, Duration::from_secs(5)) {
        Err(PxError::Fault(f)) => {
            assert_eq!((f.cause, f.dest), (FaultCause::HandlerError, bogus));
            println!("missing object surfaced: {f}");
        }
        other => panic!("expected a fault, got {other:?}"),
    }

    // The by-cause breakdown mirrors what the hook saw.
    let total = rt.stats().total();
    println!(
        "dead parcels: {} (panic {}, unknown-action {}, hop-cap {}, handler-error {}, decode {})",
        total.dead_parcels,
        total.dead_panic,
        total.dead_unknown_action,
        total.dead_hop_cap,
        total.dead_handler_error,
        total.dead_decode,
    );
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    let letters = dead_letters.lock();
    println!("dead-letter hook observed {} faults:", letters.len());
    for f in letters.iter() {
        println!("  - {f}");
    }
    assert_eq!(letters.len(), 3);
    rt.shutdown();
    println!("done: every failure was loud, nothing hung");
}
