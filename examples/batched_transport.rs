//! Batched parcel transport: the coalescing wire under a throughput load.
//!
//! ```sh
//! cargo run --release --example batched_transport
//! ```
//!
//! Pushes the same parcel stream through an injected-latency wire with
//! batching off (`max_batch_parcels = 1`: each parcel leaves at once as a
//! frame of one, so parcels/frame reads 1.0) and on
//! (`max_batch_parcels = 32`), and prints the frame / coalescing counters
//! so the mechanism is visible, not just faster.

use parallex::core::prelude::*;
use std::time::{Duration, Instant};

const PARCELS: u64 = 4096;
const WIRE_LATENCY: Duration = Duration::from_micros(50);

fn run(label: &str, max_batch_parcels: usize) -> f64 {
    let cfg = Config::small(2, 1)
        .with_latency(WIRE_LATENCY)
        .with_max_batch_parcels(max_batch_parcels);
    let rt = RuntimeBuilder::new(cfg).build().expect("boot");
    // Every trigger crosses the wire as one parcel into an and-gate LCO
    // born on locality 1; the gate fires when all have arrived.
    let gate = rt.new_and_gate(LocalityId(1), PARCELS);
    let t0 = Instant::now();
    for _ in 0..PARCELS {
        rt.trigger(gate, &()).expect("trigger");
    }
    rt.wait_value(gate).expect("gate");
    let elapsed = t0.elapsed();
    let total = rt.stats().total();
    let pps = PARCELS as f64 / elapsed.as_secs_f64();
    println!(
        "{label:>9}: {PARCELS} parcels in {elapsed:>8.2?}  ({pps:>9.0} parcels/s)  \
         frames {:>4}  parcels/frame {:>5.1}  flush full/pulled {}/{}",
        total.frames_recv,
        total.parcels_per_frame(),
        total.batch_flush_full,
        total.batch_flush_pulled,
    );
    rt.shutdown();
    pps
}

fn main() {
    println!("wire latency {WIRE_LATENCY:?}, 2 localities, 1 worker each\n");
    let single = run("unbatched", 1);
    let batched = run("batched", 32);
    println!("\nspeedup: {:.2}x", batched / single);
}
