//! Property tests for the write half of the TCP stream layer: the
//! mirror image of `stream_proptest`. A [`WriteBatch`] drained through
//! arbitrary *write* boundaries — the kernel consuming any number of
//! bytes per `write_vectored`, mid-header or mid-body, under any slice
//! cap — must put exactly the same bytes on the wire as one contiguous
//! write, so the receive side reassembles the identical messages and
//! checksummed v2 frames decode clean.

use proptest::prelude::*;
use px_wire::stream::{msg_kind, StreamAssembler, WriteBatch};
use px_wire::{FrameBuf, FrameView, FRAME_VERSION_CHECKSUM};

/// Drain `batch` simulating partial writes: each round collects the
/// unwritten slices (capped at `cap`), "writes" an arbitrary prefix of
/// them, and advances. Returns the bytes that hit the wire, in order.
fn drain_with_partial_writes(batch: &mut WriteBatch, writes: &[(usize, usize)]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut writes = writes.iter().cycle();
    while !batch.is_empty() {
        // Never let a pathological (0-byte) plan stall the drain.
        let &(cap, take) = writes.next().expect("cycled");
        let cap = cap % 7 + 1;
        let n = {
            let mut slices = Vec::new();
            let avail = batch.unwritten_slices(&mut slices, cap);
            assert!(avail > 0, "non-empty batch must expose bytes");
            let n = (take % avail) + 1;
            let mut left = n;
            for s in &slices {
                if left == 0 {
                    break;
                }
                let m = left.min(s.len());
                wire.extend_from_slice(&s[..m]);
                left -= m;
            }
            n
        };
        batch.advance(n);
    }
    wire
}

fn reassemble(wire: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut a = StreamAssembler::new();
    a.feed(wire);
    let mut out = Vec::new();
    while let Some(msg) = a.next_msg().expect("valid stream") {
        out.push(msg);
    }
    assert_eq!(a.pending_bytes(), 0, "no residue after a full drain");
    out
}

fn arb_msgs() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u8..msg_kind::MAX + 1,
            proptest::collection::vec(any::<u8>(), 0..200),
        ),
        1..10,
    )
}

proptest! {
    /// Frames split across arbitrary write boundaries arrive
    /// byte-identical: any partial-write schedule reassembles to the
    /// pushed messages.
    #[test]
    fn arbitrary_write_splits_reassemble_identically(
        msgs in arb_msgs(),
        writes in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..32),
    ) {
        let mut batch = WriteBatch::new();
        for (kind, body) in &msgs {
            batch.push(*kind, body.clone());
        }
        let total = batch.remaining_bytes();
        let wire = drain_with_partial_writes(&mut batch, &writes);
        prop_assert_eq!(wire.len(), total);
        prop_assert_eq!(reassemble(&wire), msgs);
    }

    /// Checksummed v2 frames survive any write chunking: the records
    /// decode identically to the pre-write frame (the checksum trailer
    /// would catch any byte the carry-over logic dropped or reordered).
    #[test]
    fn split_writes_keep_checksummed_frames_decodable(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..100),
            0..12,
        ),
        writes in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..24),
    ) {
        let mut f = FrameBuf::with_version(FRAME_VERSION_CHECKSUM);
        for r in &records {
            f.push_record(r);
        }
        let frame_bytes = f.take();
        let mut batch = WriteBatch::new();
        batch.push(msg_kind::FRAME, frame_bytes.clone());
        let wire = drain_with_partial_writes(&mut batch, &writes);
        let msgs = reassemble(&wire);
        prop_assert_eq!(msgs.len(), 1);
        let (kind, body) = &msgs[0];
        prop_assert_eq!(*kind, msg_kind::FRAME);
        prop_assert_eq!(body, &frame_bytes);
        let decoded: Vec<Vec<u8>> = FrameView::parse(body)
            .expect("reassembled frame parses")
            .records()
            .map(|r| r.expect("record checksums clean").to_vec())
            .collect();
        prop_assert_eq!(decoded, records);
    }
}
