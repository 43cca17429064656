//! Property tests for the multi-parcel frame format: arbitrary record
//! sets round-trip through `FrameBuf` encode → `FrameView` decode,
//! covering empty batches, single records, and frames at the size caps
//! the transport uses; and hostile bytes — arbitrary input, and valid
//! frames of either version cut short or with one byte overwritten —
//! never panic the parser or the record iterator.

use proptest::prelude::*;
use px_wire::{
    FrameBuf, FrameView, FRAME_HEADER_LEN, FRAME_TRAILER_LEN, FRAME_VERSION,
    FRAME_VERSION_CHECKSUM, RECORD_HEADER_LEN,
};

fn roundtrip(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut f = FrameBuf::new();
    for r in records {
        f.push_record(r);
    }
    assert_eq!(f.record_count() as usize, records.len());
    let expected_len = FRAME_HEADER_LEN
        + records
            .iter()
            .map(|r| RECORD_HEADER_LEN + r.len())
            .sum::<usize>();
    assert_eq!(f.len(), expected_len, "frame size must be exact");
    let bytes = f.take();
    let view = FrameView::parse(&bytes).expect("frame parses");
    assert_eq!(view.record_count() as usize, records.len());
    view.records()
        .map(|r| r.expect("record ok").to_vec())
        .collect()
}

/// What a parse of hostile `bytes` may do: refuse them, or claim no more
/// records than their length prefixes could fit, and iterate at most
/// that many, stopping at the first error.
fn parses_within_its_input(bytes: &[u8]) {
    let Ok(view) = FrameView::parse(bytes) else {
        return;
    };
    let claimed = view.record_count() as usize;
    let trailer = match bytes[0] {
        FRAME_VERSION_CHECKSUM => FRAME_TRAILER_LEN,
        _ => 0,
    };
    prop_assert!(
        claimed * RECORD_HEADER_LEN <= bytes.len() - FRAME_HEADER_LEN - trailer,
        "{claimed} records claimed in {} bytes",
        bytes.len()
    );
    let items: Vec<_> = view.records().collect();
    prop_assert!(items.len() <= claimed, "{} of {claimed}", items.len());
    if let Some(first) = items.iter().position(Result::is_err) {
        prop_assert_eq!(first, items.len() - 1, "iterated past an error");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_parse_within_their_input(
        version in prop_oneof![Just(FRAME_VERSION), Just(FRAME_VERSION_CHECKSUM), any::<u8>()],
        noise in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Led by a version byte, so the header checks past it run too.
        parses_within_its_input(&[&[version][..], &noise].concat());
    }

    #[test]
    fn damaged_frames_parse_within_their_input(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8),
        checksummed in any::<bool>(),
        cut in any::<usize>(),
        at in any::<usize>(),
        with in any::<u8>(),
    ) {
        let version = if checksummed { FRAME_VERSION_CHECKSUM } else { FRAME_VERSION };
        let mut f = FrameBuf::with_version(version);
        for r in &records {
            f.push_record(r);
        }
        let mut bytes = f.take();
        parses_within_its_input(&bytes[..cut % (bytes.len() + 1)]);
        let i = at % bytes.len();
        bytes[i] = with;
        parses_within_its_input(&bytes);
    }

    #[test]
    fn arbitrary_batches_roundtrip(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..40,
        ),
    ) {
        let back = roundtrip(&records);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn single_record_roundtrips(record in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let back = roundtrip(std::slice::from_ref(&record));
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(&back[0], &record);
    }

    #[test]
    fn encode_in_place_equals_copy_in(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..16),
    ) {
        // push_record (copy) and push_record_with (encode in place) must
        // produce byte-identical frames.
        let mut by_copy = FrameBuf::new();
        let mut in_place = FrameBuf::new();
        for r in &records {
            by_copy.push_record(r);
            let n = in_place.push_record_with(|w| w.put_bytes(r));
            prop_assert_eq!(n, r.len());
        }
        prop_assert_eq!(by_copy.as_bytes(), in_place.as_bytes());
    }

    #[test]
    fn truncation_never_yields_phantom_records(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..8),
        cut in 1usize..16,
    ) {
        let mut f = FrameBuf::new();
        for r in &records {
            f.push_record(r);
        }
        let bytes = f.take();
        if bytes.len() <= cut + FRAME_HEADER_LEN {
            return;
        }
        let cut_bytes = &bytes[..bytes.len() - cut];
        // Either the header rejects outright, or iteration ends in an
        // error item — never in a full set of intact-looking records.
        if let Ok(view) = FrameView::parse(cut_bytes) {
            let items: Vec<_> = view.records().collect();
            prop_assert!(
                items.iter().any(|r| r.is_err()),
                "truncated frame decoded cleanly"
            );
        }
    }
}

#[test]
fn empty_batch_roundtrips() {
    assert_eq!(roundtrip(&[]), Vec::<Vec<u8>>::new());
}

#[test]
fn max_size_frame_roundtrips() {
    // A frame at the transport's default 32 KiB byte cap.
    let record = vec![0xa5u8; 1024];
    let records: Vec<Vec<u8>> = (0..32).map(|_| record.clone()).collect();
    let back = roundtrip(&records);
    assert_eq!(back.len(), 32);
    assert!(back.iter().all(|r| r == &record));
}
