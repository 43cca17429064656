//! Hostile bytes for the byte-sequence decoders: arbitrary input, and
//! valid encodings cut short or with one byte overwritten, fed to
//! `Parcel::decode`, to `px_wire::from_bytes`, to `Value::decode` and to
//! `MetricsSnapshot::decode`. A decoder may refuse any of it, but must
//! not panic, and must not hand back more than it was given: every
//! length is checked against the input before the one copy it sizes, and
//! a claimed histogram cell count sizes at most the decoder's cap.

use proptest::prelude::*;
use px_core::metrics::{Instrument, MetricsRegistry, MetricsSnapshot, CELLS};
use px_core::prelude::{TraceEvent, TraceEventKind};
use px_core::{ActionId, Continuation, Gid, Parcel, PxError, Value};
use px_wire::{WireError, WireReader, WireWriter};
use serde::de::DeserializeOwned;
use serde::Serialize;

mod common {
    pub mod alloc;
}

/// `f`'s result, and the largest single allocation it made on this thread.
fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (out, _, largest) = common::alloc::counted(f);
    (out, largest)
}

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

/// `valid`, damaged as [`hostile`] says, decoded as a `T` argument
/// through `Value::decode`: no panic, no single allocation past
/// `per_byte` bytes for each input byte, and a refusal that is a
/// `PxError::Wire` — the error `sched::cause_of` books as a `Decode`
/// death.
fn value_decode_holds<T: Serialize + DeserializeOwned>(
    valid: &T,
    per_byte: usize,
    (noise, pick, cut, at, with): (Vec<u8>, u8, usize, usize, u8),
) {
    let input = hostile(
        Value::encode(valid).unwrap().bytes().to_vec(),
        noise,
        pick,
        cut,
        at,
        with,
    );
    let len = input.len();
    let value = Value::from_bytes(input);
    let (decoded, largest) = largest_alloc(|| value.decode::<T>());
    prop_assert!(largest <= per_byte * len, "{largest} B from {len} B");
    if let Err(e) = decoded {
        prop_assert!(matches!(e, PxError::Wire(_)), "{e}");
    }
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    let words = proptest::collection::vec(any::<u64>(), 5..6);
    (words, any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(w, code, locality, domain)| {
        TraceEvent {
            trace: w[0],
            kind: TraceEventKind::from_code(code % 32).unwrap_or(TraceEventKind::ParcelDispatch),
            gid: w[1],
            aux: w[2],
            at_ns: w[3],
            seq: w[4],
            locality,
            domain,
        }
    })
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

    /// The argument types this repo's actions decode through `Value`: a
    /// tuple of names and a tag, which allocates nothing; a string and an
    /// optional byte vector, at most their input; and trace events, a
    /// vector of at most one element per input byte, each
    /// `size_of::<TraceEvent>()` bytes in memory.
    #[test]
    fn value_decode_survives_hostile_bytes(
        (from, tag, to) in (any::<u64>(), any::<Option<u8>>(), any::<u64>()),
        text in proptest::collection::vec(any::<char>(), 0..16),
        blob in proptest::option::of(bytes()),
        events in proptest::collection::vec(trace_event(), 0..4),
        damage in damage(),
    ) {
        value_decode_holds(&(Gid(from), tag, Gid(to)), 0, damage.clone());
        value_decode_holds(&text.into_iter().collect::<String>(), 1, damage.clone());
        value_decode_holds(&blob, 1, damage.clone());
        value_decode_holds(&events, std::mem::size_of::<TraceEvent>(), damage);
    }

    /// A metrics pull reply: nothing accepted is dropped or altered (a
    /// full registry's worth re-encodes as the bytes it came from), a
    /// cell past the dense form or a cell count past the input is an
    /// error, and no claimed cell count sizes an allocation past the cap.
    #[test]
    fn metrics_decode_survives_hostile_bytes(
        samples in proptest::collection::vec((0..Instrument::ALL.len(), any::<u64>()), 0..32),
        idx in CELLS as u32..,
        claim in 2u64..,
        (noise, pick, cut, at, with) in damage(),
    ) {
        let registry = MetricsRegistry::default();
        for &(i, v) in &samples {
            registry.record(Instrument::ALL[i], v);
        }
        // The most a histogram decode reserves before reading its cells.
        let cap = 4096 * std::mem::size_of::<(u32, u64)>();
        let input = hostile(registry.snapshot().encode(), noise, pick, cut, at, with);
        let (decoded, largest) = largest_alloc(|| MetricsSnapshot::decode(&input));
        prop_assert!(largest <= cap, "{largest} B");
        if let Ok(s) = decoded {
            if WireReader::new(&input).get_varint() == Ok(Instrument::ALL.len() as u64) {
                prop_assert!(input.starts_with(&s.encode()));
            }
        }
        // One histogram: one cell, at `idx` or claimed as `claim` cells.
        for (idx, cells) in [(idx, 1), (0, claim)] {
            let mut w = WireWriter::new();
            w.put_varint(1);
            w.put_u64(1);
            w.put_u64(1);
            w.put_varint(cells);
            w.put_u32(idx);
            w.put_u64(1);
            let input = w.into_bytes();
            let (decoded, largest) = largest_alloc(|| MetricsSnapshot::decode(&input));
            prop_assert!(decoded.is_err() && largest <= cap, "{largest} B");
        }
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
