//! Low-level byte writer/reader used by the serde adapters.
//!
//! These are also usable directly for hand-rolled framing (the parcel
//! header in `px-core` uses them to avoid serde overhead on the hot path).

use crate::error::{WireError, WireResult};
use std::cell::Cell;

/// The most capacity a thread's scratch writer keeps between uses: one
/// large encode does not pin its buffer for the thread's lifetime.
const SCRATCH_CAP: usize = 64 * 1024;

thread_local! {
    static SCRATCH: Cell<WireWriter> = const { Cell::new(WireWriter::new()) };
}

/// Run `f` on this thread's scratch writer, empty on entry, so an encode
/// whose result is copied out (`to_bytes`, px-core's `Value::encode`)
/// writes into a buffer that has already grown instead of regrowing a new
/// one by doubling. Capacity above 64 KiB (`SCRATCH_CAP`) is released on
/// the way out. The writer is taken out of its slot while `f` runs, so a
/// re-entrant call (an encode inside `f`), like one during thread
/// teardown, starts from a fresh writer.
pub fn with_scratch<R>(f: impl FnOnce(&mut WireWriter) -> R) -> R {
    let mut w = SCRATCH.try_with(Cell::take).unwrap_or_default();
    let out = f(&mut w);
    w.buf.clear();
    w.buf.shrink_to(SCRATCH_CAP);
    let _ = SCRATCH.try_with(|slot| slot.set(w));
    out
}

/// Growable little-endian byte writer.
///
/// Thin wrapper over `Vec<u8>` with fixed-width and LEB128 encoders. All
/// writers are `#[inline]` — they sit on the parcel serialization fast path.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// New empty writer.
    pub const fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// New writer with reserved capacity (avoids regrowth for known sizes).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Clear contents, retaining capacity (buffer reuse on hot paths).
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128`, little-endian.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i8`.
    #[inline]
    pub fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    /// Append an `i16`, little-endian.
    #[inline]
    pub fn put_i16(&mut self, v: i16) {
        self.put_u16(v as u16);
    }

    /// Append an `i32`, little-endian.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Append an `i64`, little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Append an `i128`, little-endian.
    #[inline]
    pub fn put_i128(&mut self, v: i128) {
        self.put_u128(v as u128);
    }

    /// Append an `f32` as IEEE-754 bits.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as IEEE-754 bits.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a LEB128-encoded unsigned varint (1–10 bytes).
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append raw bytes with no framing.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite 4 already-written bytes at `pos` with a little-endian
    /// `u32`. Backs reserve-then-patch framing (frame record lengths and
    /// counts), where a length is only known after its content is encoded.
    #[inline]
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Append a LEB128 length prefix followed by the bytes.
    #[inline]
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_bytes(bytes);
    }
}

/// Cursor-style reader over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// New reader positioned at the start of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True if the whole input has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.input.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `u128`.
    #[inline]
    pub fn get_u128(&mut self) -> WireResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read an `i8`.
    #[inline]
    pub fn get_i8(&mut self) -> WireResult<i8> {
        Ok(self.get_u8()? as i8)
    }

    /// Read a little-endian `i16`.
    #[inline]
    pub fn get_i16(&mut self) -> WireResult<i16> {
        Ok(self.get_u16()? as i16)
    }

    /// Read a little-endian `i32`.
    #[inline]
    pub fn get_i32(&mut self) -> WireResult<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> WireResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a little-endian `i128`.
    #[inline]
    pub fn get_i128(&mut self) -> WireResult<i128> {
        Ok(self.get_u128()? as i128)
    }

    /// Read an IEEE-754 `f32`.
    #[inline]
    pub fn get_f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an IEEE-754 `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a LEB128 unsigned varint.
    #[inline]
    pub fn get_varint(&mut self) -> WireResult<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Read `n` raw bytes, borrowing from the input.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// Read a LEB128 length prefix then that many bytes (borrowed).
    #[inline]
    pub fn get_len_bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::LengthExceedsInput {
                len,
                remaining: self.remaining(),
            });
        }
        self.take(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xab);
        w.put_u16(0xcdef);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_i32(-42);
        w.put_f64(2.5);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0xcdef);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn varint_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v, "varint {v}");
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u64| {
            let mut w = WireWriter::new();
            w.put_varint(v);
            w.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes cannot encode a u64.
        let bytes = [0xffu8; 11];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_varint(), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn eof_reported_with_counts() {
        let mut r = WireReader::new(&[1, 2]);
        match r.get_u64() {
            Err(WireError::UnexpectedEof { needed, remaining }) => {
                assert_eq!(needed, 8);
                assert_eq!(remaining, 2);
            }
            other => panic!("expected EOF error, got {other:?}"),
        }
    }

    #[test]
    fn len_bytes_guard_against_huge_prefix() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_len_bytes(),
            Err(WireError::LengthExceedsInput { .. })
        ));
    }

    #[test]
    fn writer_reuse_after_clear() {
        let mut w = WireWriter::with_capacity(64);
        w.put_u64(1);
        let cap = w.buf.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.buf.capacity(), cap);
    }

    #[test]
    fn scratch_is_reused_nests_and_keeps_at_most_its_cap() {
        let kept = || {
            SCRATCH.with(|slot| {
                let w = slot.take();
                let cap = w.buf.capacity();
                slot.set(w);
                cap
            })
        };
        with_scratch(|w| w.put_bytes(&[7; 1000]));
        assert!(kept() >= 1000);
        let inner = with_scratch(|outer| {
            outer.put_u8(1);
            let inner = with_scratch(|w| {
                assert!(w.is_empty());
                w.put_u8(2);
                w.as_slice().to_vec()
            });
            assert_eq!(outer.as_slice(), [1]);
            inner
        });
        assert_eq!(inner, [2]);
        with_scratch(|w| w.put_bytes(&vec![0; 4 * SCRATCH_CAP]));
        assert!(kept() <= SCRATCH_CAP);
        assert!(with_scratch(|w| w.is_empty()));
    }
}
