//! # px-wire — compact binary wire format for ParalleX parcels
//!
//! Parcels in ParalleX carry serialized argument values between localities
//! (§2.2 of the paper: "Additional argument values can be carried by the
//! parcel to move prior state to the site of the invoked thread execution").
//! This crate provides the byte-level encoding used for those payloads:
//! a small, untagged, little-endian binary format with LEB128
//! variable-length integers for lengths and enum discriminants.
//!
//! The format is implemented as a pair of [`serde`] adapters so any
//! `Serialize`/`Deserialize` type can ride in a parcel:
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Body { pos: [f64; 3], mass: f64, id: u64 }
//!
//! let b = Body { pos: [1.0, 2.0, 3.0], mass: 5.5, id: 42 };
//! let bytes = px_wire::to_bytes(&b).unwrap();
//! let back: Body = px_wire::from_bytes(&bytes).unwrap();
//! assert_eq!(b, back);
//! ```
//!
//! ## Encoding rules
//!
//! | Type | Encoding |
//! |---|---|
//! | `bool` | one byte, `0` or `1` |
//! | `u8..u64`, `i8..i64` | fixed-width little-endian |
//! | `u128`/`i128` | fixed 16 bytes little-endian |
//! | `f32`/`f64` | IEEE-754 bits, little-endian |
//! | `char` | `u32` scalar value |
//! | `str`, `bytes` | LEB128 length + raw bytes |
//! | `[u8; N]` | the `N` raw bytes |
//! | `Option` | `0` = None, `1` + value = Some |
//! | seq/map | LEB128 length + elements (length required) |
//! | tuple/struct | elements back to back, no framing |
//! | enum | LEB128 variant index + payload |
//!
//! `Vec<u8>` and `[u8]` are the `bytes` row, and `[u8; N]` is the same
//! without the length. `u8` overrides the vendored serde's element hooks
//! (`serialize_elems`, `deserialize_elems`), so a byte sequence is
//! written with one `extend_from_slice`, and a `Vec<u8>` is read with one
//! copy out of the borrowed input. An array is read one element at a
//! time, on the stack, as are other element types, through the seq and
//! tuple/struct rows.
//!
//! The format is not self-describing: reader and writer must agree on the
//! schema, which is always true for parcels because the action registry
//! fixes the argument type on both sides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod de;
mod error;
mod fault;
mod frame;
mod histogram;
mod ser;
pub mod stream;

pub use buf::{with_scratch, WireReader, WireWriter};
pub use de::{from_bytes, Deserializer};
pub use error::{WireError, WireResult};
pub use fault::WireFault;
pub use frame::{
    frame_checksum, FrameBuf, FrameRecords, FrameView, FRAME_HEADER_LEN, FRAME_TRAILER_LEN,
    FRAME_VERSION, FRAME_VERSION_CHECKSUM, RECORD_HEADER_LEN,
};
pub use histogram::WireHistogram;
pub use ser::{to_bytes, to_writer, Serializer};

/// Bit assignments of the parcel header *flags* byte.
///
/// The flags byte is the single extension point of the parcel header:
/// every optional header field is gated on a bit here so that parcels not
/// using a feature pay zero bytes for it and their encoding stays
/// bit-identical as features are added. Fixed in `px-wire` (rather than
/// in the parcel layer) because the frame format and any future peer
/// implementation must agree on it.
pub mod parcel_flags {
    /// Deliver into the destination's percolation staging buffer.
    pub const STAGED: u8 = 1 << 0;
    /// The payload is an encoded [`crate::WireFault`], not action args.
    pub const FAULT: u8 = 1 << 1;
    /// An owning-process id (`u64`, little-endian) follows the flags
    /// byte: the parcel is accounted to that parallel process for
    /// hierarchical quiescence and is killed at dispatch if the process
    /// has been cancelled.
    pub const HAS_PID: u8 = 1 << 2;
    /// A causal trace id (`u64`, little-endian) follows the optional
    /// owning-process id: every event the parcel causes (dispatch,
    /// LCO trigger, fault, follow-on parcels) is recorded under this id
    /// so a request can be replayed end to end across localities and
    /// ranks. Untraced parcels carry zero bytes for it.
    pub const HAS_TRACE: u8 = 1 << 3;
    /// Every flag a decoder of this version understands.
    pub const ALL: [u8; 4] = [STAGED, FAULT, HAS_PID, HAS_TRACE];
    /// Mask of [`ALL`]: a decoder rejects any bit outside it.
    pub const KNOWN: u8 = {
        let mut mask = 0;
        let mut i = 0;
        while i < ALL.len() {
            mask |= ALL[i];
            i += 1;
        }
        mask
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[test]
    fn parcel_flags_are_distinct_single_bits() {
        let mut seen = 0u8;
        for flag in parcel_flags::ALL {
            assert_eq!(flag.count_ones(), 1, "{flag:#010b} is not a single bit");
            assert_eq!(seen & flag, 0, "{flag:#010b} is assigned twice");
            seen |= flag;
        }
        assert_eq!(parcel_flags::KNOWN, seen);
    }

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'a> Deserialize<'a> + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(v).expect("serialize");
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(&back, v);
        back
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&-1i64);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&u128::MAX);
        roundtrip(&1.25e300f64);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&'ψ');
        roundtrip(&"hello parallex".to_string());
    }

    #[test]
    fn nan_roundtrips_as_nan() {
        let bytes = to_bytes(&f64::NAN).unwrap();
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3, 4]);
        roundtrip(&Vec::<u8>::new());
        roundtrip(&Some(7u16));
        roundtrip(&Option::<u16>::None);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        roundtrip(&m);
        roundtrip(&(1u8, "two".to_string(), 3.0f32));
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Msg {
        Ping,
        Move { dx: f64, dy: f64 },
        Batch(Vec<u32>),
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(&Msg::Ping);
        roundtrip(&Msg::Move { dx: 1.5, dy: -2.5 });
        roundtrip(&Msg::Batch(vec![9, 8, 7]));
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        name: String,
        inner: Vec<Msg>,
        flag: Option<bool>,
    }

    #[test]
    fn nested_struct_roundtrips() {
        roundtrip(&Nested {
            name: "locality-3".into(),
            inner: vec![Msg::Ping, Msg::Batch(vec![1])],
            flag: Some(false),
        });
    }

    /// A derived struct is its fields back to back, nothing else: the
    /// bytes equal a hand-written layout.
    #[test]
    fn derived_struct_layout_is_positional() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Row {
            policy: String,
            makespan_ms: f64,
            shed: u64,
            data: Vec<u8>,
            on_time: bool,
        }
        let row = Row {
            policy: "x".into(),
            makespan_ms: 1.5,
            shed: 2,
            data: vec![0xaa, 0xbb],
            on_time: true,
        };
        let bytes = to_bytes(&row).unwrap();
        let mut expected = vec![1u8]; // "x" length varint
        expected.extend_from_slice(b"x");
        expected.extend_from_slice(&1.5f64.to_le_bytes());
        expected.extend_from_slice(&2u64.to_le_bytes());
        expected.extend_from_slice(&[2, 0xaa, 0xbb]);
        expected.push(1);
        assert_eq!(bytes, expected);
        assert_eq!(roundtrip(&row), row);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32).unwrap();
        bytes.push(0xff);
        let r: WireResult<u32> = from_bytes(&bytes);
        assert!(r.is_err(), "trailing bytes must be an error");
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&"a longer string".to_string()).unwrap();
        let r: WireResult<String> = from_bytes(&bytes[..bytes.len() - 2]);
        assert!(r.is_err());
    }

    #[test]
    fn compactness_u8_vec() {
        // A Vec<u8> of length 100 should cost ~1 length byte + 100 payload.
        let v = vec![0u8; 100];
        assert_eq!(to_bytes(&v).unwrap().len(), 101);

        // Byte sequences pinned by hand, both ways: a LEB128 length, then
        // the raw bytes (no length for a fixed-size array).
        fn golden<T>(value: &T, bytes: &[u8])
        where
            T: Serialize + for<'a> Deserialize<'a> + PartialEq + std::fmt::Debug,
        {
            assert_eq!(to_bytes(value).unwrap(), bytes, "{value:?}");
            assert_eq!(&from_bytes::<T>(bytes).unwrap(), value);
        }
        golden(&vec![1u8, 2, 3], &[3, 1, 2, 3]);
        golden(&Vec::<u8>::new(), &[0]);
        // 200 needs a two-byte LEB128 length: 200 = 0b1_1001000.
        let long: Vec<u8> = (0..200).map(|i| i as u8).collect();
        golden(&long, &[&[0xc8, 0x01], &long[..]].concat());
        assert_eq!(to_bytes(&&[9u8, 8][..]).unwrap(), [2, 9, 8]);
        golden(&[0xdeu8, 0xad, 0xbe, 0xef], &[0xde, 0xad, 0xbe, 0xef]);
        golden(&Some(vec![7u8, 7]), &[1, 2, 7, 7]);
        golden(&Option::<Vec<u8>>::None, &[0]);
        golden(&vec![vec![1u8], vec![], vec![2, 3]], &[3, 1, 1, 0, 2, 2, 3]);
    }
}
