//! Hostile bytes for the byte-sequence decoders: arbitrary input, and
//! valid encodings cut short or with one byte overwritten, fed to
//! `Parcel::decode` and to `px_wire::from_bytes`. A decoder may refuse
//! any of it, but must not panic, and must not hand back more bytes than
//! it was given: every length is checked against the input before the
//! one copy it sizes.

use proptest::prelude::*;
use px_core::{ActionId, Continuation, Gid, Parcel, Value};
use px_wire::{WireError, WireWriter};

type Mixed = (u64, Vec<u8>, Option<[u8; 4]>);

/// By `pick`: arbitrary bytes, `valid` cut at `cut`, or `valid` with
/// byte `at` overwritten by `with`.
fn hostile(valid: Vec<u8>, noise: Vec<u8>, pick: u8, cut: usize, at: usize, with: u8) -> Vec<u8> {
    match pick % 3 {
        0 => noise,
        1 => valid[..cut % (valid.len() + 1)].to_vec(),
        _ => {
            let mut v = valid;
            if !v.is_empty() {
                let i = at % v.len();
                v[i] = with;
            }
            v
        }
    }
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

fn damage() -> impl Strategy<Value = (Vec<u8>, u8, usize, usize, u8)> {
    (
        bytes(),
        any::<u8>(),
        any::<usize>(),
        any::<usize>(),
        any::<u8>(),
    )
}

proptest! {
    #[test]
    fn parcel_decode_survives_hostile_bytes(
        payload in bytes(),
        steps in 0usize..3,
        (noise, pick, cut, at, with) in damage(),
    ) {
        let mut cont = Continuation::none();
        for i in 0..steps {
            cont = cont.then(px_core::parcel::ContStep::Contribute(Gid(i as u64)));
        }
        let valid = Parcel::new(Gid(7), ActionId(9), Value::encode(&payload).unwrap(), cont).encode();
        let input = hostile(valid, noise, pick, cut, at, with);
        if let Ok(p) = Parcel::decode(&input) {
            prop_assert!(p.payload.len() <= input.len());
        }
    }

    #[test]
    fn byte_vectors_survive_hostile_bytes(
        value in bytes(),
        nested in proptest::collection::vec(bytes(), 0..4),
        (noise, pick, cut, at, with) in damage(),
    ) {
        let input = hostile(px_wire::to_bytes(&value).unwrap(), noise.clone(), pick, cut, at, with);
        if let Ok(v) = px_wire::from_bytes::<Vec<u8>>(&input) {
            prop_assert!(v.len() <= input.len());
        }
        let input = hostile(px_wire::to_bytes(&nested).unwrap(), noise, pick, cut, at, with);
        if let Ok(v) = px_wire::from_bytes::<Vec<Vec<u8>>>(&input) {
            prop_assert!(v.iter().map(Vec::len).sum::<usize>() <= input.len());
        }
    }

    #[test]
    fn arrays_and_tuples_survive_hostile_bytes(
        id in any::<u64>(),
        value in bytes(),
        tag in proptest::option::of(any::<u32>()),
        (noise, pick, cut, at, with) in damage(),
    ) {
        let mixed: Mixed = (id, value, tag.map(u32::to_le_bytes));
        let input = hostile(px_wire::to_bytes(&mixed).unwrap(), noise.clone(), pick, cut, at, with);
        if let Ok((_, v, _)) = px_wire::from_bytes::<Mixed>(&input) {
            prop_assert!(v.len() <= input.len());
        }
        let _ = px_wire::from_bytes::<[u8; 16]>(&noise);
        let _ = px_wire::from_bytes::<[f64; 3]>(&noise);
    }

    /// A length prefix past the end of the input is refused as such by
    /// `take_seq_len`, before anything is copied or allocated.
    #[test]
    fn a_length_past_the_end_is_refused(
        body in bytes(),
        extra in 1u64..u64::MAX / 2,
        id in any::<u64>(),
    ) {
        let len = body.len() as u64 + extra;
        let refused = WireError::LengthExceedsInput { len, remaining: body.len() };
        // `head`, then the length's LEB128 prefix, then the body.
        let claim = |head: &[u8]| {
            let mut w = WireWriter::new();
            w.put_bytes(head);
            w.put_varint(len);
            w.put_bytes(&body);
            w.into_bytes()
        };
        let input = claim(&[]);
        prop_assert_eq!(px_wire::from_bytes::<Vec<u8>>(&input), Err(refused.clone()));
        prop_assert_eq!(px_wire::from_bytes::<Vec<Vec<u8>>>(&input), Err(refused.clone()));
        let inner = claim(&[1]);
        prop_assert_eq!(px_wire::from_bytes::<Vec<Vec<u8>>>(&inner), Err(refused.clone()));
        let mixed = claim(&id.to_le_bytes());
        prop_assert_eq!(px_wire::from_bytes::<Mixed>(&mixed), Err(refused));
    }
}
