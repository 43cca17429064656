//! E6: moving work to data (§2.2).
//!
//! The claim: ParalleX "moves the work to the data when this is
//! preferable to just moving the data to the work as is conventionally
//! done."
//!
//! Workload: a block of `B` bytes lives at L1; L0 needs a reduction over
//! it (checksum). Two plans, `M` sequential operations each:
//!
//! * **move data** — fetch the block (paying latency + `B`·bandwidth),
//!   reduce locally;
//! * **move work** — send a parcel carrying the operation (tens of
//!   bytes), reduce at the owner, return the 8-byte result.
//!
//! With bandwidth cost on the wire, the crossover sits where
//! `B / bandwidth` exceeds one extra hop of latency; the sweep shows it.
//! The verdict counts the bytes each plan puts on the wire (`bytes_sent`)
//! and prices them with the wire model; the measured times are printed.

use crate::table::{f2, ms, print_table};
use px_core::prelude::*;
use std::time::{Duration, Instant};

/// Operations per measurement.
pub const OPS: usize = 30;
/// Wire latency.
pub const LATENCY: Duration = Duration::from_micros(15);
/// Wire bandwidth cost, ns per byte (2 ns/B ≈ 0.5 GB/s).
pub const NS_PER_BYTE: u64 = 2;

struct Checksum;
impl Action for Checksum {
    const NAME: &'static str = "e6/checksum";
    type Args = ();
    type Out = u64;
    fn execute(ctx: &mut Ctx<'_>, target: Gid, _args: ()) -> u64 {
        let data = ctx.read_local_data(target).expect("block is local here");
        data.iter().map(|&b| u64::from(b)).sum()
    }
}

fn build_rt() -> Runtime {
    RuntimeBuilder::new(
        Config::small(2, 1)
            .with_latency(LATENCY)
            .with_ns_per_byte(NS_PER_BYTE),
    )
    .register::<Checksum>()
    .build()
    .unwrap()
}

/// One sweep row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Block size, bytes.
    pub bytes: usize,
    /// Move-data time for [`OPS`] operations.
    pub move_data: Duration,
    /// Move-work time for [`OPS`] operations.
    pub move_work: Duration,
    /// move_data / move_work (> 1 ⇒ moving work wins).
    pub ratio: f64,
    /// Bytes the move-data plan put on the wire.
    pub data_bytes: u64,
    /// Bytes the move-work plan put on the wire.
    pub work_bytes: u64,
    /// The wire model's price of `data_bytes` over that of `work_bytes`,
    /// each plan paying one round trip per operation.
    pub wire_ratio: f64,
}

/// What the wire model charges a plan of [`OPS`] round trips that moves
/// `bytes` in all.
fn wire_cost(bytes: u64) -> Duration {
    LATENCY * (2 * OPS as u32) + Duration::from_nanos(bytes * NS_PER_BYTE)
}

/// Measure one block size.
pub fn measure(bytes: usize) -> Row {
    let rt = build_rt();
    let block = rt.new_data_at(LocalityId(1), vec![1u8; bytes]);
    let expect = bytes as u64;

    // Both plans driven identically by a PX-thread at L0.
    let run_plan = |move_work: bool| -> (Duration, u64) {
        let sent = || rt.stats().total().bytes_sent;
        let sent_before = sent();
        let done = rt.new_future::<u64>(LocalityId(0));
        let done_gid = done.gid();
        let t0 = Instant::now();
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn step(
                ctx: &mut Ctx<'_>,
                block: Gid,
                left: usize,
                move_work: bool,
                done: Gid,
                acc: u64,
            ) {
                if left == 0 {
                    ctx.trigger(done, &acc).unwrap();
                    return;
                }
                if move_work {
                    let fut = ctx.call::<Checksum>(block, ()).unwrap();
                    ctx.when_future(fut, move |ctx, sum: u64| {
                        step(ctx, block, left - 1, move_work, done, acc + sum);
                    });
                } else {
                    let fut = ctx.fetch_data(block);
                    ctx.when_future(fut, move |ctx, data: Vec<u8>| {
                        let sum: u64 = data.iter().map(|&b| u64::from(b)).sum();
                        step(ctx, block, left - 1, move_work, done, acc + sum);
                    });
                }
            }
            step(ctx, block, OPS, move_work, done_gid, 0);
        });
        let total = done.wait(&rt).unwrap();
        assert_eq!(total, expect * OPS as u64, "checksum mismatch");
        (t0.elapsed(), sent() - sent_before)
    };

    let (move_data, data_bytes) = run_plan(false);
    let (move_work, work_bytes) = run_plan(true);
    let row = Row {
        bytes,
        move_data,
        move_work,
        ratio: move_data.as_secs_f64() / move_work.as_secs_f64(),
        data_bytes,
        work_bytes,
        wire_ratio: wire_cost(data_bytes).as_secs_f64() / wire_cost(work_bytes).as_secs_f64(),
    };
    rt.shutdown();
    row
}

/// Sweep block sizes.
pub fn sweep(sizes: &[usize]) -> Vec<Row> {
    sizes.iter().map(|&b| measure(b)).collect()
}

/// Print the E6 table.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[1 << 10, 1 << 13, 1 << 16, 1 << 18]);
    println!(
        "\n[E6] {OPS} serial ops on a remote block; wire {} µs + {} ns/B; analytic crossover ≈ {} KiB",
        LATENCY.as_micros(),
        NS_PER_BYTE,
        LATENCY.as_nanos() as u64 / NS_PER_BYTE / 1024,
    );
    print_table(
        "E6 — move data vs move work (parcel) crossover",
        &[
            "block B",
            "move-data ms",
            "move-work ms",
            "data/work",
            "data B/op",
            "work B/op",
            "wire data/work",
        ],
        rows.iter().map(|r| {
            vec![
                r.bytes.to_string(),
                ms(r.move_data),
                ms(r.move_work),
                f2(r.ratio),
                (r.data_bytes / OPS as u64).to_string(),
                (r.work_bytes / OPS as u64).to_string(),
                f2(r.wire_ratio),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_favors_work_for_large_blocks() {
        let small = measure(1 << 10); // 1 KiB: 2 µs transfer < 15 µs hop
        let large = measure(1 << 18); // 256 KiB: 524 µs transfer >> hop
        for r in [small, large] {
            // Moving data ships the block every operation; moving work
            // ships a parcel and an 8-byte sum, tens of bytes each.
            assert!(r.data_bytes >= (OPS * r.bytes) as u64, "{r:?}");
            assert!(r.work_bytes < (OPS * 256) as u64, "{r:?}");
        }
        assert!(
            large.wire_ratio > 1.5,
            "moving work must win for large blocks: ratio {}",
            large.wire_ratio
        );
        assert!(
            small.wire_ratio < large.wire_ratio,
            "ratio must grow with size: {} vs {}",
            small.wire_ratio,
            large.wire_ratio
        );
    }
}
