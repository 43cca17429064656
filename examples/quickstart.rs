//! Quickstart: the eight ParalleX mechanisms in one small program.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parallex::core::prelude::*;
use parallex::core::{echo, percolation};

// An action: a named unit of work a parcel applies to a target object.
struct SquareSum;
impl Action for SquareSum {
    const NAME: &'static str = "quickstart/square_sum";
    type Args = Vec<u64>;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _target: Gid, xs: Vec<u64>) -> u64 {
        xs.iter().map(|x| x * x).sum()
    }
}

fn main() {
    // 1. Localities: four synchronous domains, one worker each, with a
    //    20 µs wire between them.
    let rt =
        RuntimeBuilder::new(Config::small(4, 1).with_latency(std::time::Duration::from_micros(20)))
            .register::<SquareSum>()
            .build()
            .expect("boot");

    println!("booted {} localities", rt.num_localities());

    // 2. Global name space: objects have GIDs; symbolic names resolve to
    //    them.
    let data = rt.new_data_at(LocalityId(2), vec![1, 2, 3]);
    rt.register_name("/quickstart/block", data).unwrap();
    assert_eq!(rt.lookup_name("/quickstart/block").unwrap(), data);
    println!("named object {data} as /quickstart/block");

    // 3. Parcels + continuations: send work to locality 1, route the
    //    result into a future LCO.
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<SquareSum>(
        Gid::locality_root(LocalityId(1)),
        vec![1, 2, 3, 4],
        Continuation::set(fut.gid()),
    )
    .unwrap();
    // 4. LCOs: the driver blocks on the future (PX-threads would suspend).
    println!("square sum via parcel = {}", fut.wait(&rt).unwrap());

    // 5. Multithreading: ephemeral threads, suspension via depleted
    //    threads, work moving to data.
    let done = rt.new_future::<u64>(LocalityId(0));
    let done_gid = done.gid();
    rt.spawn_at(LocalityId(0), move |ctx| {
        // fetch_data moves the data to the work …
        let bytes = ctx.fetch_data(data);
        ctx.when_future(bytes, move |ctx, b: Vec<u8>| {
            // … and this continuation is a depleted thread, resumed when
            // the value arrives.
            ctx.trigger(done_gid, &(b.len() as u64)).unwrap();
        });
    });
    println!(
        "fetched {} bytes through a depleted thread",
        done.wait(&rt).unwrap()
    );

    // 6. Parallel processes: spawn a tree of threads across localities;
    //    quiescence fires when every descendant finished.
    let proc = rt.create_process(LocalityId(0));
    for l in 0..4u16 {
        proc.spawn_at(&rt, LocalityId(l), move |ctx| {
            // Each process thread forks two children on its locality.
            for _ in 0..2 {
                ctx.spawn(|_ctx| { /* leaf work */ });
            }
        });
    }
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    println!("process quiesced after {} threads", 4 + 8);

    // 7. Percolation: prestage a task + its data at locality 3.
    let staged = rt.new_future::<u64>(LocalityId(0));
    percolation::percolate::<SquareSum>(
        &rt,
        LocalityId(3),
        Gid::locality_root(LocalityId(3)),
        &vec![5, 6],
        Continuation::set(staged.gid()),
    )
    .unwrap();
    println!("percolated kernel = {}", staged.wait(&rt).unwrap());

    // 8. Echo: replica tree with split-phase commit.
    let tree = echo::create_tree(&rt, LocalityId(0), 2, &7u64).unwrap();
    let (v, version) = rt.run_blocking(LocalityId(2), move |ctx| {
        echo::read_local::<u64>(ctx.locality(), tree.local_node(LocalityId(2))).unwrap()
    });
    println!("echo replica at L2 reads {v} (version {version})");

    rt.shutdown();
    println!("done.");
}
