//! `__sys` payload layouts: one small type per message, its `put`/`get`
//! the only place the layout is written, used by the sender and the
//! handler alike. All integers are little-endian (`px_wire`'s raw
//! framing); decoding never trusts a length it has not checked against
//! the input.

use crate::action::Value;
use crate::agas::MigrationCause;
use crate::gid::{Gid, LocalityId};
use crate::parcel::{Continuation, Parcel};
use px_wire::{WireReader, WireResult, WireWriter};

/// A value with a fixed wire layout.
pub(crate) trait Wire: Sized {
    /// Append the encoding.
    fn put(&self, w: &mut WireWriter);
    /// Read one value; short or corrupt input is an error, never a panic.
    fn get(r: &mut WireReader<'_>) -> WireResult<Self>;

    /// The encoding as a parcel payload or reply value.
    fn encode(&self) -> Value {
        px_wire::with_scratch(|w| {
            self.put(w);
            Value::from_slice(w.as_slice(), false)
        })
    }

    /// Decode from a payload's bytes.
    fn decode(bytes: &[u8]) -> WireResult<Self> {
        Self::get(&mut WireReader::new(bytes))
    }
}

/// The field types: `impl Wire for $ty` from a put and a get expression.
macro_rules! wire {
    ($($ty:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, $w: &mut WireWriter) {
                let $v = self;
                $put
            }
            fn get($r: &mut WireReader<'_>) -> WireResult<Self> {
                $get
            }
        }
    )*};
}

wire! {
    u32: |v, w| w.put_u32(*v), |r| r.get_u32();
    u64: |v, w| w.put_u64(*v), |r| r.get_u64();
    // Any nonzero byte reads as true.
    bool: |v, w| w.put_u8(u8::from(*v)), |r| Ok(r.get_u8()? != 0);
    // Also `DIR_LOOKUP`'s reply (the authoritative owner, 2 bytes)…
    LocalityId: |v, w| w.put_u16(v.0), |r| r.get_u16().map(LocalityId);
    // …and `NAME_LOOKUP`'s (the bound gid, 8 bytes).
    Gid: |v, w| w.put_u64(v.0), |r| r.get_u64().map(Gid);
    // 0 manual, 1 balancer; anything else reads as manual.
    MigrationCause: |v, w| w.put_u8(u8::from(*v == MigrationCause::Balancer)), |r| {
        Ok(if r.get_u8()? == 1 { MigrationCause::Balancer } else { MigrationCause::Manual })
    };
    // Length-prefixed. `get_len_bytes` checks the prefix against what is
    // left before it borrows: nothing is allocated from a bare claim.
    Vec<u8>: |v, w| w.put_len_bytes(v), |r| Ok(r.get_len_bytes()?.to_vec());
    // A value is the rest of the payload, so it comes last.
    Value: |v, w| w.put_bytes(v.bytes()), |r| {
        Ok(Value::from_slice(r.get_bytes(r.remaining())?, false))
    };
}

/// One message per row: `Type = ACTION { fields }`. The fields, in order,
/// *are* the payload layout of that action, and `parcel` is the only way
/// such a parcel is built. A row without an action is a reply's layout.
macro_rules! messages {
    ($($name:ident $(= $action:ident)? { $($field:ident: $ty:ty),* })*) => {$(
        $(#[doc = concat!("Payload of [`super::", stringify!($action), "`].")])?
        #[derive(Debug, Clone, PartialEq)]
        pub(crate) struct $name {
            $(pub $field: $ty,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut WireWriter) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
                Ok($name { $($field: Wire::get(r)?,)* })
            }
        }

        $(impl $name {
            /// The parcel carrying this message to `dest` under `trace`
            /// (fire-and-forget as built; `Origin::request` attaches a
            /// reply future).
            pub(crate) fn parcel(&self, dest: Gid, trace: Option<u64>) -> Parcel {
                let cont = Continuation::none();
                Parcel::new(dest, super::$action, self.encode(), cont).with_trace(trace)
            }
        })?
    )*};
}

messages! {
    SetSlot = LCO_SET_SLOT { idx: u32, value: Value }
    Migrate = AGAS_MIGRATE { to: LocalityId, cause: MigrationCause }
    DirInstall = DIR_INSTALL { gid: Gid, version: u64, bytes: Vec<u8> }
    DirUpdate = DIR_UPDATE { gid: Gid, owner: LocalityId, cause: MigrationCause }
    DirLookup = DIR_LOOKUP { gid: Gid }
    DirRepair = DIR_REPAIR { gid: Gid, owner: LocalityId }
    DirCommit = DIR_COMMIT { gid: Gid, keep: bool, owner: LocalityId }
    EchoProp = ECHO_PROP { version: u64, value: Value }
    EchoValidate = ECHO_VALIDATE { used: u64 }
    // `ECHO_VALIDATE`'s reply: the value rides along only when stale.
    EchoVerdict { valid: bool, version: u64, value: Value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use MigrationCause::{Balancer, Manual};

    /// `decode(encode(x)) == x`, the bytes are exactly `layout` (what the
    /// parent commit's hand-written encoders produced — a change-built
    /// rank and a parent-built one interoperate), and every strict prefix
    /// shorter than `fixed` — the whole encoding, for a type without an
    /// open-ended tail — is an error rather than a panic or a guess.
    fn check<T: Wire + PartialEq + std::fmt::Debug>(x: T, layout: &[u8], fixed: usize) {
        let v = x.encode();
        assert_eq!(v.bytes(), layout, "{x:?}");
        assert_eq!(T::decode(v.bytes()).unwrap(), x);
        for cut in 0..fixed {
            assert!(T::decode(&layout[..cut]).is_err(), "{x:?} cut at {cut}");
        }
    }

    #[test]
    fn every_message_round_trips_in_the_parents_layout() {
        let gid = Gid(0x0102_0304_0506_0708);
        let g = [8, 7, 6, 5, 4, 3, 2, 1];
        let rank = LocalityId(0x0A0B);
        let cat = |parts: &[&[u8]]| parts.concat();

        check(rank, &[0x0B, 0x0A], 2);
        check(gid, &g, 8);
        check(Manual, &[0], 1);
        check(Balancer, &[1], 1);
        let m = Migrate {
            to: rank,
            cause: Balancer,
        };
        check(m, &[0x0B, 0x0A, 1], 3);
        let value = Value::from_bytes(vec![9, 9, 9]);
        // The value is whatever follows the index: only the index is
        // fixed, and an empty value is a value.
        check(SetSlot { idx: 3, value }, &[3, 0, 0, 0, 9, 9, 9], 4);
        let install = DirInstall {
            gid,
            version: 2,
            bytes: vec![0xAA; 5],
        };
        let layout = cat(&[&g, &[2, 0, 0, 0, 0, 0, 0, 0], &[5], &[0xAA; 5]]);
        check(install, &layout, layout.len());
        let update = DirUpdate {
            gid,
            owner: rank,
            cause: Manual,
        };
        check(update, &cat(&[&g, &[0x0B, 0x0A, 0]]), 11);
        check(DirLookup { gid }, &g, 8);
        check(
            DirRepair { gid, owner: rank },
            &cat(&[&g, &[0x0B, 0x0A]]),
            10,
        );
        let value = Value::from_bytes(vec![7, 7]);
        let v9 = [9, 0, 0, 0, 0, 0, 0, 0];
        let prop = EchoProp { version: 9, value };
        check(prop, &cat(&[&v9, &[7, 7]]), 8);
        check(EchoValidate { used: 9 }, &v9, 8);
        // `1 ++ version` when valid; `0 ++ version ++ value` when stale.
        for (valid, tail) in [(true, &[][..]), (false, &[7, 7][..])] {
            let verdict = EchoVerdict {
                valid,
                version: 9,
                value: Value::from_bytes(tail.to_vec()),
            };
            check(verdict, &cat(&[&[u8::from(valid)], &v9, tail]), 9);
        }
        for keep in [true, false] {
            let commit = DirCommit {
                gid,
                keep,
                owner: rank,
            };
            check(commit, &cat(&[&g, &[u8::from(keep), 0x0B, 0x0A]]), 11);
        }
    }

    /// Every row's decode over hostile payloads: arbitrary bytes, cut at
    /// every length, decode to an error or to a message that re-encodes
    /// within the bytes it was read from — never a panic — and a cut
    /// shorter than the row's fixed part is an error.
    fn refuses_hostile<T: Wire>(bytes: &[u8], fixed: usize) {
        for cut in 0..=bytes.len() {
            if let Ok(x) = T::decode(&bytes[..cut]) {
                prop_assert!(cut >= fixed, "decoded {cut} bytes of a {fixed}-byte layout");
                prop_assert!(
                    x.encode().bytes().len() <= cut,
                    "re-encoded past {cut} bytes"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn every_row_refuses_hostile_payloads(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            refuses_hostile::<SetSlot>(&bytes, 4);
            refuses_hostile::<Migrate>(&bytes, 3);
            // gid, version, and at least a one-byte length prefix.
            refuses_hostile::<DirInstall>(&bytes, 17);
            refuses_hostile::<DirUpdate>(&bytes, 11);
            refuses_hostile::<DirLookup>(&bytes, 8);
            refuses_hostile::<DirRepair>(&bytes, 10);
            refuses_hostile::<DirCommit>(&bytes, 11);
            refuses_hostile::<EchoProp>(&bytes, 8);
            refuses_hostile::<EchoValidate>(&bytes, 8);
            refuses_hostile::<EchoVerdict>(&bytes, 9);
        }
    }

    #[test]
    fn hostile_lengths_are_refused_before_any_allocation() {
        // A length prefix claiming 2^62 bytes with three behind it.
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u64(0);
        w.put_varint(1 << 62);
        w.put_bytes(&[1, 2, 3]);
        assert!(DirInstall::decode(&w.into_bytes()).is_err());
        // Lenient where the parent was: an unknown cause byte is manual,
        // any nonzero keep byte keeps.
        assert_eq!(MigrationCause::decode(&[7]).unwrap(), Manual);
        let commit = DirCommit::decode(&[0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0]).unwrap();
        assert!(commit.keep);
    }
}
