//! serde `Serializer` for the wire format.

use crate::buf::{with_scratch, WireWriter};
use crate::error::{WireError, WireResult};
use serde::ser::{Serialize, Serializer as SerdeSerializer};

/// Serialize `value` into a fresh byte vector of exactly its length: the
/// encoding runs in this thread's scratch writer ([`with_scratch`]), so
/// the vector is the one allocation.
pub fn to_bytes<T: Serialize>(value: &T) -> WireResult<Vec<u8>> {
    with_scratch(|w| {
        to_writer(w, value)?;
        Ok(w.as_slice().to_vec())
    })
}

/// Serialize `value` into an existing [`WireWriter`] (buffer reuse).
pub fn to_writer<T: Serialize>(writer: &mut WireWriter, value: &T) -> WireResult<()> {
    let mut ser = Serializer { out: writer };
    value.serialize(&mut ser)
}

/// serde serializer writing the px-wire encoding.
pub struct Serializer<'w> {
    out: &'w mut WireWriter,
}

impl<'w> Serializer<'w> {
    /// Wrap a writer.
    pub fn new(out: &'w mut WireWriter) -> Self {
        Serializer { out }
    }
}

impl SerdeSerializer for Serializer<'_> {
    type Error = WireError;

    #[inline]
    fn put_bool(&mut self, v: bool) -> WireResult<()> {
        self.out.put_u8(v as u8);
        Ok(())
    }

    #[inline]
    fn put_u8(&mut self, v: u8) -> WireResult<()> {
        self.out.put_u8(v);
        Ok(())
    }

    #[inline]
    fn put_u16(&mut self, v: u16) -> WireResult<()> {
        self.out.put_u16(v);
        Ok(())
    }

    #[inline]
    fn put_u32(&mut self, v: u32) -> WireResult<()> {
        self.out.put_u32(v);
        Ok(())
    }

    #[inline]
    fn put_u64(&mut self, v: u64) -> WireResult<()> {
        self.out.put_u64(v);
        Ok(())
    }

    #[inline]
    fn put_u128(&mut self, v: u128) -> WireResult<()> {
        self.out.put_u128(v);
        Ok(())
    }

    #[inline]
    fn put_i8(&mut self, v: i8) -> WireResult<()> {
        self.out.put_i8(v);
        Ok(())
    }

    #[inline]
    fn put_i16(&mut self, v: i16) -> WireResult<()> {
        self.out.put_i16(v);
        Ok(())
    }

    #[inline]
    fn put_i32(&mut self, v: i32) -> WireResult<()> {
        self.out.put_i32(v);
        Ok(())
    }

    #[inline]
    fn put_i64(&mut self, v: i64) -> WireResult<()> {
        self.out.put_i64(v);
        Ok(())
    }

    #[inline]
    fn put_i128(&mut self, v: i128) -> WireResult<()> {
        self.out.put_i128(v);
        Ok(())
    }

    #[inline]
    fn put_f32(&mut self, v: f32) -> WireResult<()> {
        self.out.put_f32(v);
        Ok(())
    }

    #[inline]
    fn put_f64(&mut self, v: f64) -> WireResult<()> {
        self.out.put_f64(v);
        Ok(())
    }

    #[inline]
    fn put_char(&mut self, v: char) -> WireResult<()> {
        self.out.put_u32(v as u32);
        Ok(())
    }

    #[inline]
    fn put_str(&mut self, v: &str) -> WireResult<()> {
        self.out.put_len_bytes(v.as_bytes());
        Ok(())
    }

    #[inline]
    fn put_raw(&mut self, v: &[u8]) -> WireResult<()> {
        self.out.put_bytes(v);
        Ok(())
    }

    #[inline]
    fn put_seq_len(&mut self, len: usize) -> WireResult<()> {
        self.out.put_varint(len as u64);
        Ok(())
    }

    #[inline]
    fn put_opt_tag(&mut self, is_some: bool) -> WireResult<()> {
        self.out.put_u8(is_some as u8);
        Ok(())
    }

    #[inline]
    fn put_variant(&mut self, index: u32) -> WireResult<()> {
        self.out.put_varint(u64::from(index));
        Ok(())
    }
}
