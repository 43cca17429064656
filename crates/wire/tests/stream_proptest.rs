//! Property tests for the TCP stream layer: a message sequence fed to
//! [`StreamAssembler`] in arbitrary chunks — frames split at arbitrary
//! byte boundaries across reads, many messages per read, one byte per
//! read — must reassemble to exactly the messages the whole-buffer feed
//! yields, and checksummed frames carried as message bodies must decode
//! identically to whole-frame decode. Hostile bytes never panic the
//! assembler, the hello or the address table, and the table decoder
//! allocates for no more entries than it is told to expect.

use proptest::prelude::*;
use px_wire::stream::{
    decode_handshake, decode_table, encode_handshake, encode_msg_header, encode_table, msg_kind,
    StreamAssembler, HANDSHAKE_LEN,
};
use px_wire::{FrameBuf, FrameView, FRAME_VERSION_CHECKSUM};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Encode `(kind, body)` messages into one contiguous byte stream.
fn encode_stream(msgs: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (kind, body) in msgs {
        out.extend_from_slice(&encode_msg_header(*kind, body.len() as u32));
        out.extend_from_slice(body);
    }
    out
}

/// Feed `bytes` split at `cuts` (relative positions) and collect every
/// reassembled message.
fn reassemble_chunked(bytes: &[u8], cuts: &[usize]) -> Vec<(u8, Vec<u8>)> {
    let mut a = StreamAssembler::new();
    let mut out = Vec::new();
    let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries.push(bytes.len());
    let mut start = 0;
    for end in boundaries {
        if end < start {
            continue;
        }
        a.feed(&bytes[start..end]);
        while let Some(msg) = a.next_msg().expect("valid stream never errors") {
            out.push(msg);
        }
        start = end;
    }
    assert_eq!(a.pending_bytes(), 0, "no residue after a complete stream");
    out
}

fn arb_table() -> impl Strategy<Value = Vec<SocketAddr>> {
    let addr = (any::<bool>(), any::<u128>(), any::<u16>()).prop_map(|(v4, bits, port)| {
        let ip = match v4 {
            true => IpAddr::from(Ipv4Addr::from(bits as u32)),
            false => IpAddr::from(Ipv6Addr::from(bits)),
        };
        SocketAddr::new(ip, port)
    });
    proptest::collection::vec(addr, 0..20)
}

fn arb_msgs() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u8..msg_kind::MAX + 1,
            proptest::collection::vec(any::<u8>(), 0..300),
        ),
        0..12,
    )
}

proptest! {
    /// Any chunking reproduces the whole-feed message sequence.
    #[test]
    fn arbitrary_splits_reassemble_identically(
        msgs in arb_msgs(),
        cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let stream = encode_stream(&msgs);
        let whole = reassemble_chunked(&stream, &[]);
        let chunked = reassemble_chunked(&stream, &cuts);
        prop_assert_eq!(&whole, &msgs);
        prop_assert_eq!(chunked, msgs);
    }

    /// A checksummed multi-parcel frame split at arbitrary read
    /// boundaries decodes to the same records as whole-frame decode.
    #[test]
    fn split_checksummed_frames_decode_identically(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128),
            0..16,
        ),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut f = FrameBuf::with_version(FRAME_VERSION_CHECKSUM);
        for r in &records {
            f.push_record(r);
        }
        let frame_bytes = f.take();
        let whole: Vec<Vec<u8>> = FrameView::parse(&frame_bytes)
            .expect("frame parses")
            .records()
            .map(|r| r.expect("record ok").to_vec())
            .collect();
        prop_assert_eq!(&whole, &records);

        let stream = encode_stream(&[(msg_kind::FRAME, frame_bytes)]);
        let msgs = reassemble_chunked(&stream, &cuts);
        prop_assert_eq!(msgs.len(), 1);
        let (kind, body) = &msgs[0];
        prop_assert_eq!(*kind, msg_kind::FRAME);
        let split: Vec<Vec<u8>> = FrameView::parse(body)
            .expect("reassembled frame parses")
            .records()
            .map(|r| r.expect("record ok").to_vec())
            .collect();
        prop_assert_eq!(split, records);
    }

    /// Any bytes fed to the assembler yield messages or an error, never a
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_assembler(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut a = StreamAssembler::new();
        a.feed(&bytes);
        while let Ok(Some(_)) = a.next_msg() {}
    }

    /// A hello is this version's magic and version, or it is refused.
    #[test]
    fn arbitrary_hellos_decode_or_are_refused(
        bytes in proptest::collection::vec(any::<u8>(), HANDSHAKE_LEN..HANDSHAKE_LEN + 1),
        valid_prefix in any::<bool>(),
    ) {
        let mut bytes: [u8; HANDSHAKE_LEN] = bytes.try_into().unwrap();
        if valid_prefix {
            bytes[..5].copy_from_slice(&encode_handshake(0, 0)[..5]);
        }
        match decode_handshake(&bytes) {
            Ok((locality, port)) => prop_assert_eq!(encode_handshake(locality, port), bytes),
            Err(_) => prop_assert_ne!(&bytes[..5], &encode_handshake(0, 0)[..5]),
        }
    }

    /// Whatever count it is told, the table decoder accepts exactly that
    /// many entries, canonically encoded, and allocates for no more.
    #[test]
    fn arbitrary_tables_decode_exactly_n_or_are_refused(
        body in proptest::collection::vec(any::<u8>(), 0..200),
        n in prop_oneof![0usize..12, any::<usize>()],
    ) {
        if let Ok(table) = decode_table(&body, n) {
            prop_assert_eq!(table.len(), n);
            prop_assert_eq!(table.capacity(), n);
            prop_assert_eq!(encode_table(&table), body);
        }
    }

    /// A table round-trips at its own size, and a wrong size or a cut
    /// body is refused.
    #[test]
    fn tables_roundtrip_and_refuse_the_wrong_count(table in arb_table(), cut in any::<usize>()) {
        let body = encode_table(&table);
        let canonical: Vec<SocketAddr> = (table.iter())
            .map(|a| SocketAddr::new(a.ip().to_canonical(), a.port()))
            .collect();
        prop_assert_eq!(decode_table(&body, table.len()).unwrap(), canonical);
        prop_assert!(decode_table(&body, table.len() + 1).is_err());
        if !table.is_empty() {
            prop_assert!(decode_table(&body, table.len() - 1).is_err());
            prop_assert!(decode_table(&body[..cut % body.len()], table.len()).is_err());
        }
    }
}
