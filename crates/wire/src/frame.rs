//! Parcel frames: the one shape in which parcels cross the wire.
//!
//! A frame carries zero or more length-prefixed records (encoded parcels)
//! between localities. A coalescing port fills one so that per-message
//! transport costs — wire submissions, heap operations, run-queue pushes,
//! wakeups — are paid once per frame instead of once per parcel; a parcel
//! that leaves alone leaves as a frame of one ([`FrameBuf::of_one`]).
//!
//! ## Layout
//!
//! ```text
//! +---------+------------+----------------+-----+----------------+
//! | version | count: u32 | len: u32 | rec | ... | len: u32 | rec |
//! |  (1 B)  |    (LE)    |   (LE)   |     |     |   (LE)   |     |
//! +---------+------------+----------------+-----+----------------+
//! ```
//!
//! Records use a fixed `u32` length prefix (not a varint) so the prefix
//! can be reserved before the record is encoded and patched afterwards:
//! [`FrameBuf::push_record_with`] lets callers encode *directly into the
//! frame's buffer*, which is what removes the per-parcel `Vec` allocation
//! from the send path. The `count` field is likewise patched in place on
//! every push, so [`FrameBuf::as_bytes`] is always a valid frame.
//!
//! Decoding is zero-copy: [`FrameView`] validates the header eagerly and
//! yields `&[u8]` record slices lazily, preserving the scheduler's
//! lazy-per-parcel decode.
//!
//! ## Integrity (version 2)
//!
//! Frames that leave the process boundary (the TCP transport) use
//! version [`FRAME_VERSION_CHECKSUM`]: the same layout plus a 4-byte
//! FNV-1a trailer over header + records, appended when the frame is
//! shipped ([`FrameBuf::take`], [`FrameBuf::of_one`]) and verified by
//! [`FrameView::parse`]. A
//! corrupt frame then dies loudly at the decode layer instead of
//! misparsing records. The checksum is *version-gated*: version-1 frames
//! (the in-process transport) carry no trailer and their bytes are
//! bit-identical to the pre-checksum format.

use crate::buf::{WireReader, WireWriter};
use crate::error::{WireError, WireResult};

/// Original frame format version byte (no integrity trailer).
pub const FRAME_VERSION: u8 = 1;

/// Frame format with a 4-byte FNV-1a checksum trailer (used by
/// transports that cross a process boundary).
pub const FRAME_VERSION_CHECKSUM: u8 = 2;

/// Bytes of frame header (version + record count).
pub const FRAME_HEADER_LEN: usize = 1 + 4;

/// Per-record framing overhead (the `u32` length prefix).
pub const RECORD_HEADER_LEN: usize = 4;

/// Bytes of the version-2 integrity trailer.
pub const FRAME_TRAILER_LEN: usize = 4;

/// FNV-1a 32-bit checksum (the version-2 frame trailer). Cheap, no
/// table, good enough to catch the torn/corrupt frames a socket stream
/// can produce; it is an integrity check, not an authenticity one.
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A reusable encode buffer accumulating length-prefixed records.
///
/// [`FrameBuf::take`] ships the encoded frame and resets the buffer to an
/// empty frame; the allocation strategy reserves the previous frame's size
/// on the next use so steady-state batching settles into a stable
/// capacity.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    w: WireWriter,
    count: u32,
    version: u8,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// New empty version-1 frame (no integrity trailer; the bit-identical
    /// in-process format).
    pub fn new() -> FrameBuf {
        FrameBuf::with_version(FRAME_VERSION)
    }

    /// New empty frame of `version` ([`FRAME_VERSION`] or
    /// [`FRAME_VERSION_CHECKSUM`]).
    pub fn with_version(version: u8) -> FrameBuf {
        FrameBuf::with_capacity_version(0, version)
    }

    /// New empty frame of `version` with reserved capacity.
    pub fn with_capacity_version(cap: usize, version: u8) -> FrameBuf {
        debug_assert!(
            version == FRAME_VERSION || version == FRAME_VERSION_CHECKSUM,
            "unknown frame version {version}"
        );
        let mut w = WireWriter::with_capacity(cap.max(FRAME_HEADER_LEN));
        w.put_u8(version);
        w.put_u32(0);
        FrameBuf {
            w,
            count: 0,
            version,
        }
    }

    /// The frame format version this buffer encodes.
    #[inline]
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Number of records in the frame.
    #[inline]
    pub fn record_count(&self) -> u32 {
        self.count
    }

    /// Encoded frame size in bytes (header included).
    #[inline]
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True when the frame holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append an already-encoded record.
    pub fn push_record(&mut self, record: &[u8]) {
        self.push_record_with(|w| w.put_bytes(record));
    }

    /// Append a record encoded in place by `encode`, avoiding any
    /// intermediate allocation. Returns the record's encoded size.
    pub fn push_record_with(&mut self, encode: impl FnOnce(&mut WireWriter)) -> usize {
        let len_at = self.w.len();
        self.w.put_u32(0);
        let start = self.w.len();
        encode(&mut self.w);
        let record_len = self.w.len() - start;
        self.w
            .patch_u32(len_at, u32::try_from(record_len).expect("record > 4 GiB"));
        self.count += 1;
        self.w.patch_u32(1, self.count);
        record_len
    }

    /// The encoded frame. For version 1 this is always a valid frame,
    /// even mid-fill; a version-2 frame is finalized (checksum trailer
    /// appended) only by [`FrameBuf::take`].
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.w.as_slice()
    }

    /// Ship the frame: returns the encoded bytes (appending the
    /// integrity trailer on version-2 frames) and resets `self` to an
    /// empty frame of the same version sized like the one just taken.
    pub fn take(&mut self) -> Vec<u8> {
        let fresh = FrameBuf::with_capacity_version(self.w.len(), self.version);
        std::mem::replace(self, fresh).finish()
    }

    /// The encoded bytes, with the trailer on version-2 frames.
    fn finish(self) -> Vec<u8> {
        let mut w = self.w;
        if self.version == FRAME_VERSION_CHECKSUM {
            let sum = frame_checksum(w.as_slice());
            w.put_u32(sum);
        }
        w.into_bytes()
    }

    /// A frame of `version` holding one record of `record_len` bytes,
    /// encoded in place by `encode`: a message sent on its own. Sized
    /// exactly, trailer included: one allocation.
    pub fn of_one(version: u8, record_len: usize, encode: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let trailer = usize::from(version == FRAME_VERSION_CHECKSUM) * FRAME_TRAILER_LEN;
        let cap = FRAME_HEADER_LEN + RECORD_HEADER_LEN + record_len + trailer;
        let mut frame = FrameBuf::with_capacity_version(cap, version);
        frame.push_record_with(encode);
        frame.finish()
    }
}

/// A validated, zero-copy view over an encoded frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    records: &'a [u8],
    count: u32,
}

impl<'a> FrameView<'a> {
    /// Validate the header of `bytes` (and, for version-2 frames, verify
    /// the checksum trailer) and wrap it.
    pub fn parse(bytes: &'a [u8]) -> WireResult<FrameView<'a>> {
        let mut r = WireReader::new(bytes);
        let version = r.get_u8()?;
        let records_end = match version {
            FRAME_VERSION => bytes.len(),
            FRAME_VERSION_CHECKSUM => {
                if bytes.len() < FRAME_HEADER_LEN + FRAME_TRAILER_LEN {
                    return Err(WireError::Message(
                        "checksummed frame shorter than header + trailer".into(),
                    ));
                }
                let body_end = bytes.len() - FRAME_TRAILER_LEN;
                let want = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
                let got = frame_checksum(&bytes[..body_end]);
                if want != got {
                    return Err(WireError::Message(format!(
                        "frame checksum mismatch: trailer {want:#010x}, computed {got:#010x}"
                    )));
                }
                body_end
            }
            _ => {
                return Err(WireError::Message(format!(
                    "unsupported frame version {version}"
                )))
            }
        };
        let count = r.get_u32()?;
        // Each record costs at least its length prefix. (`records_end` is
        // at least FRAME_HEADER_LEN: the u32 read above succeeded, and the
        // v2 arm checked header + trailer explicitly.)
        let remaining = records_end - FRAME_HEADER_LEN;
        if u64::from(count) * RECORD_HEADER_LEN as u64 > remaining as u64 {
            return Err(WireError::LengthExceedsInput {
                len: u64::from(count),
                remaining,
            });
        }
        Ok(FrameView {
            records: &bytes[FRAME_HEADER_LEN..records_end],
            count,
        })
    }

    /// Number of records the header claims.
    #[inline]
    pub fn record_count(&self) -> u32 {
        self.count
    }

    /// Iterate record slices. Decoding is lazy: a corrupt length prefix
    /// surfaces as an `Err` item and ends iteration.
    pub fn records(&self) -> FrameRecords<'a> {
        FrameRecords {
            reader: WireReader::new(self.records),
            left: self.count,
            failed: false,
        }
    }
}

/// Iterator over the records of a [`FrameView`].
#[derive(Debug, Clone)]
pub struct FrameRecords<'a> {
    reader: WireReader<'a>,
    left: u32,
    failed: bool,
}

impl<'a> Iterator for FrameRecords<'a> {
    type Item = WireResult<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 || self.failed {
            return None;
        }
        self.left -= 1;
        let res = (|| {
            let len = self.reader.get_u32()? as usize;
            self.reader.get_bytes(len)
        })();
        if res.is_err() {
            self.failed = true;
        }
        Some(res)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.failed { 0 } else { self.left as usize };
        (0, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(bytes: &[u8]) -> Vec<Vec<u8>> {
        FrameView::parse(bytes)
            .unwrap()
            .records()
            .map(|r| r.unwrap().to_vec())
            .collect()
    }

    #[test]
    fn empty_frame_roundtrips() {
        let mut f = FrameBuf::new();
        assert!(f.is_empty());
        assert_eq!(f.len(), FRAME_HEADER_LEN);
        let bytes = f.take();
        let v = FrameView::parse(&bytes).unwrap();
        assert_eq!(v.record_count(), 0);
        assert_eq!(v.records().count(), 0);
    }

    #[test]
    fn records_roundtrip_in_order() {
        let mut f = FrameBuf::new();
        f.push_record(b"alpha");
        f.push_record(b"");
        f.push_record_with(|w| {
            w.put_u64(0xdead_beef);
        });
        assert_eq!(f.record_count(), 3);
        let bytes = f.take();
        let recs = collect(&bytes);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], b"alpha");
        assert_eq!(recs[1], b"");
        assert_eq!(recs[2], 0xdead_beef_u64.to_le_bytes());
    }

    #[test]
    fn take_resets_to_empty() {
        let mut f = FrameBuf::new();
        f.push_record(b"x");
        let first = f.take();
        assert!(f.is_empty());
        assert_eq!(f.len(), FRAME_HEADER_LEN);
        f.push_record(b"y");
        let second = f.take();
        assert_eq!(collect(&first), vec![b"x".to_vec()]);
        assert_eq!(collect(&second), vec![b"y".to_vec()]);
    }

    #[test]
    fn as_bytes_valid_mid_fill() {
        let mut f = FrameBuf::new();
        f.push_record(b"one");
        let v = FrameView::parse(f.as_bytes()).unwrap();
        assert_eq!(v.record_count(), 1);
        f.push_record(b"two");
        let v = FrameView::parse(f.as_bytes()).unwrap();
        assert_eq!(v.record_count(), 2);
    }

    #[test]
    fn bad_version_rejected() {
        let mut f = FrameBuf::new();
        f.push_record(b"x");
        let mut bytes = f.take();
        bytes[0] = 99;
        assert!(FrameView::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_record_is_error_item() {
        let mut f = FrameBuf::new();
        f.push_record(b"hello world");
        let bytes = f.take();
        let cut = &bytes[..bytes.len() - 4];
        let v = FrameView::parse(cut).unwrap();
        let items: Vec<_> = v.records().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }

    /// Golden layout pin for both versions: the version-1 bytes must be
    /// exactly the pre-checksum format (the in-process transport promises
    /// bit-identical frames), and version 2 must differ only in the
    /// version byte plus a 4-byte FNV-1a trailer.
    #[test]
    fn golden_layout_v1_and_v2() {
        let mut expected_v1 = vec![FRAME_VERSION];
        expected_v1.extend_from_slice(&1u32.to_le_bytes()); // count
        expected_v1.extend_from_slice(&5u32.to_le_bytes()); // record len
        expected_v1.extend_from_slice(b"alpha");
        let mut f1 = FrameBuf::new();
        f1.push_record(b"alpha");
        assert_eq!(f1.take(), expected_v1, "v1 layout drifted");

        let mut expected_v2 = expected_v1.clone();
        expected_v2[0] = FRAME_VERSION_CHECKSUM;
        let sum = frame_checksum(&expected_v2);
        expected_v2.extend_from_slice(&sum.to_le_bytes());
        let mut f2 = FrameBuf::with_version(FRAME_VERSION_CHECKSUM);
        f2.push_record(b"alpha");
        assert_eq!(f2.take(), expected_v2, "v2 layout drifted");
    }

    /// A frame of one is the frame a `FrameBuf` ships holding that one
    /// record, in both versions.
    #[test]
    fn a_frame_of_one_is_a_one_record_frame() {
        for version in [FRAME_VERSION, FRAME_VERSION_CHECKSUM] {
            let mut f = FrameBuf::with_version(version);
            f.push_record(b"alpha");
            let one = FrameBuf::of_one(version, 5, |w| w.put_bytes(b"alpha"));
            assert_eq!(one, f.take(), "version {version}");
            assert_eq!(collect(&one), vec![b"alpha".to_vec()]);
        }
    }

    #[test]
    fn checksummed_frame_roundtrips() {
        let mut f = FrameBuf::with_version(FRAME_VERSION_CHECKSUM);
        f.push_record(b"one");
        f.push_record(b"two");
        let bytes = f.take();
        assert!(f.is_empty());
        assert_eq!(f.version(), FRAME_VERSION_CHECKSUM, "take keeps version");
        assert_eq!(collect(&bytes), vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn corrupt_checksummed_frame_rejected() {
        let mut f = FrameBuf::with_version(FRAME_VERSION_CHECKSUM);
        f.push_record(b"payload bytes here");
        let mut bytes = f.take();
        // Flip one payload bit: v1 parsing would happily misparse this;
        // the trailer catches it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = FrameView::parse(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "expected checksum error, got: {err}"
        );
        // Too-short v2 input is rejected before touching the trailer.
        assert!(FrameView::parse(&[FRAME_VERSION_CHECKSUM, 0, 0]).is_err());
    }

    #[test]
    fn impossible_count_rejected_eagerly() {
        let mut bytes = vec![FRAME_VERSION];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FrameView::parse(&bytes),
            Err(WireError::LengthExceedsInput { .. })
        ));
    }
}
