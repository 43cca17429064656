//! Byte-stream message framing: what ParalleX TCP peers speak.
//!
//! A socket delivers a *byte stream*; the runtime's wire unit, the parcel
//! frame (checksummed, version 2), must be re-framed on top of it. Each
//! stream message is
//!
//! ```text
//! +-----------+------------+---------+
//! | kind: u8  |  len: u32  |  body   |
//! |           |    (LE)    | (len B) |
//! +-----------+------------+---------+
//! ```
//!
//! where `kind` is one of [`msg_kind`] and `body` is the encoded frame —
//! a port's, or a frame of one — exactly as the runtime's wire built it:
//! the stream layer adds framing, never re-encodes.
//!
//! [`StreamAssembler`] is the receive half: feed it the arbitrary chunks
//! `read(2)` returns and it yields complete `(kind, body)` messages,
//! regardless of how the stream was split (a message may arrive across
//! many reads, or many messages in one read). A property test pins the
//! invariant: any chunking of a message sequence reassembles to the same
//! messages as feeding the bytes whole.
//!
//! ## Connection handshake
//!
//! A peer pair shares one connection, dialled by the higher rank, and
//! both directions ride it. The dialer's first bytes are a fixed-size
//! hello: `MAGIC (u32 LE) ++ STREAM_VERSION (u8) ++ locality id (u16 LE)
//! ++ listen port (u16 LE)`, built/parsed by
//! [`encode_handshake`]/[`decode_handshake`]. The magic rejects strangers
//! (port scanners, misconfigured peers) and the version a peer of another
//! protocol version, before any runtime state is touched; the locality id
//! tells the acceptor which peer the connection belongs to, and the port
//! where that peer listens (at the IP the connection came from). The
//! acceptor writes no hello: its messages follow the dialer's hello on
//! the same connection.
//!
//! Only rank 0's address is known in advance. Rank 0 learns every other
//! rank's from its hello, and once all have said hello it writes each a
//! [`msg_kind::TABLE`] ([`encode_table`]/[`decode_table`]) as the first
//! message on the connection — the one message that is not runtime
//! traffic — from which each rank dials the ranks below it.

use crate::buf::{WireReader, WireWriter};
use crate::error::{WireError, WireResult};
use std::net::{IpAddr, Ipv6Addr, SocketAddr};

/// Stream protocol magic: `"PXS1"` little-endian.
pub const STREAM_MAGIC: u32 = 0x3153_5850;

/// Stream protocol version (bumped on any header/handshake change). 4:
/// every parcel crosses in a checksummed frame, a control parcel too (a
/// frame of one), so a version-3 peer is refused at the hello.
pub const STREAM_VERSION: u8 = 4;

/// Bytes of the per-message header (`kind` + `len`).
pub const MSG_HEADER_LEN: usize = 1 + 4;

/// Bytes of the connection handshake (`magic` + `version` + `locality` +
/// `listen port`).
pub const HANDSHAKE_LEN: usize = 4 + 1 + 2 + 2;

/// Upper bound on a single stream message body. Far above any real frame
/// (ports cap frames at `max_batch_bytes`); its job is to turn a
/// desynchronized or hostile length prefix into a loud error instead of
/// an attempted multi-gigabyte allocation.
pub const MAX_MSG_LEN: usize = 256 * 1024 * 1024;

/// Message kinds carried over a peer stream. Each kind that carries
/// parcels carries a frame ([`crate::FrameBuf`]) and names its queue.
pub mod msg_kind {
    /// Reserved: a bare parcel (stream versions up to 3). A version-4
    /// runtime sends none and counts one it receives as undecodable.
    pub const PARCEL: u8 = 0;
    /// Reserved: a bare staged parcel, refused like [`PARCEL`].
    pub const PARCEL_STAGED: u8 = 1;
    /// A frame for the general run queue: a port's, or a frame of one.
    pub const FRAME: u8 = 2;
    /// A frame for the percolation staging buffer.
    pub const FRAME_STAGED: u8 = 3;
    /// A frame of one control-plane parcel (gossip, metrics pulls, AGAS
    /// legs and their replies): delivered to the destination's priority
    /// control queue, never coalesced.
    pub const CONTROL: u8 = 4;
    /// The address table, from rank 0 once per connection, at bootstrap,
    /// as the connection's first message ([`super::encode_table`]); never
    /// delivered to the runtime.
    pub const TABLE: u8 = 5;
    /// Highest kind a decoder of this version understands.
    pub const MAX: u8 = TABLE;
}

/// Encode a message header for a body of `len` bytes.
pub fn encode_msg_header(kind: u8, len: u32) -> [u8; MSG_HEADER_LEN] {
    let mut h = [0u8; MSG_HEADER_LEN];
    h[0] = kind;
    h[1..5].copy_from_slice(&len.to_le_bytes());
    h
}

/// Encode the connection hello of `locality`, which listens on
/// `listen_port`.
pub fn encode_handshake(locality: u16, listen_port: u16) -> [u8; HANDSHAKE_LEN] {
    let mut h = [0u8; HANDSHAKE_LEN];
    h[0..4].copy_from_slice(&STREAM_MAGIC.to_le_bytes());
    h[4] = STREAM_VERSION;
    h[5..7].copy_from_slice(&locality.to_le_bytes());
    h[7..9].copy_from_slice(&listen_port.to_le_bytes());
    h
}

/// Validate a connection hello; returns the peer's locality id and
/// listen port.
pub fn decode_handshake(bytes: &[u8; HANDSHAKE_LEN]) -> WireResult<(u16, u16)> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != STREAM_MAGIC {
        return Err(WireError::Message(format!(
            "bad stream magic {magic:#010x} (not a ParalleX peer?)"
        )));
    }
    if bytes[4] != STREAM_VERSION {
        return Err(WireError::Message(format!(
            "unsupported stream version {}",
            bytes[4]
        )));
    }
    let field = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
    Ok((field(5), field(7)))
}

/// Bytes of one address-table entry: the address as IPv6 (an IPv4 one
/// mapped, `::ffff:a.b.c.d`; u128 LE), then the port (u16 LE).
const TABLE_ENTRY_LEN: usize = 16 + 2;

/// Encode the address table, one entry per rank in rank order.
pub fn encode_table(table: &[SocketAddr]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(table.len() * TABLE_ENTRY_LEN);
    for addr in table {
        let ip = match addr.ip() {
            IpAddr::V4(ip) => ip.to_ipv6_mapped(),
            IpAddr::V6(ip) => ip,
        };
        w.put_u128(ip.into());
        w.put_u16(addr.port());
    }
    w.into_bytes()
}

/// Decode a table of exactly `n` entries (a mapped IPv4 address comes
/// back as IPv4); a body of any other length is an error, so nothing is
/// allocated for more than `n` entries.
pub fn decode_table(body: &[u8], n: usize) -> WireResult<Vec<SocketAddr>> {
    if Some(body.len()) != n.checked_mul(TABLE_ENTRY_LEN) {
        return Err(WireError::Message(format!(
            "a table of {} bytes does not hold {n} entries",
            body.len()
        )));
    }
    let (mut r, mut table) = (WireReader::new(body), Vec::with_capacity(n));
    for _ in 0..n {
        let ip = Ipv6Addr::from(r.get_u128()?).to_canonical();
        table.push(SocketAddr::new(ip, r.get_u16()?));
    }
    Ok(table)
}

/// Incremental reassembler for the message stream.
///
/// Feed raw chunks with [`StreamAssembler::feed`]; pull complete
/// messages with [`StreamAssembler::next_msg`]. An error (unknown kind
/// or an impossible length) means the stream is desynchronized and the
/// connection must be dropped — there is no way to resynchronize a
/// length-prefixed stream after a bad prefix.
#[derive(Debug, Default)]
pub struct StreamAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
}

impl StreamAssembler {
    /// New empty assembler.
    pub fn new() -> StreamAssembler {
        StreamAssembler::default()
    }

    /// Append a chunk read from the stream.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Compact before growing: once every buffered message has been
        // consumed the allocation is reused from the start, so steady
        // state never grows beyond (largest message + one chunk).
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as messages.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next complete message, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// corrupt/desynchronized and must be dropped.
    pub fn next_msg(&mut self) -> WireResult<Option<(u8, Vec<u8>)>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < MSG_HEADER_LEN {
            return Ok(None);
        }
        let kind = avail[0];
        if kind > msg_kind::MAX {
            return Err(WireError::Message(format!(
                "unknown stream message kind {kind}"
            )));
        }
        let len = u32::from_le_bytes(avail[1..5].try_into().unwrap()) as usize;
        if len > MAX_MSG_LEN {
            return Err(WireError::Message(format!(
                "stream message of {len} bytes exceeds the {MAX_MSG_LEN}-byte cap"
            )));
        }
        if avail.len() < MSG_HEADER_LEN + len {
            return Ok(None);
        }
        let body = avail[MSG_HEADER_LEN..MSG_HEADER_LEN + len].to_vec();
        self.pos += MSG_HEADER_LEN + len;
        Ok(Some((kind, body)))
    }
}

/// The send half of the message stream: queued messages exposed as
/// scatter-gather slices with explicit partial-write carry-over.
///
/// A nonblocking socket consumes however many bytes the kernel has room
/// for — possibly mid-header, possibly mid-body. `WriteBatch` owns the
/// queued `(kind, body)` messages, hands out the *unwritten* tail as
/// [`std::io::IoSlice`]s for `write_vectored`, and [`WriteBatch::advance`]s
/// by whatever the write returned, popping fully-written messages and
/// remembering the byte offset into the front one. A property test pins
/// the mirror-image invariant of [`StreamAssembler`]'s: any split of the
/// writes reassembles to the same messages.
///
/// On a connection loss the unwritten tail is still here:
/// [`WriteBatch::drain_msgs`] surrenders it — a partly written front
/// message included, whole — for loud per-parcel kills.
#[derive(Debug, Default)]
pub struct WriteBatch {
    msgs: std::collections::VecDeque<([u8; MSG_HEADER_LEN], Vec<u8>)>,
    /// Bytes of the front message (header ++ body) already written.
    offset: usize,
    /// Unwritten bytes across all queued messages.
    remaining: usize,
}

impl WriteBatch {
    /// New empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// No unwritten bytes queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Queued messages not yet fully written.
    pub fn msg_count(&self) -> usize {
        self.msgs.len()
    }

    /// Unwritten bytes (headers + bodies).
    pub fn remaining_bytes(&self) -> usize {
        self.remaining
    }

    /// Queue one message.
    pub fn push(&mut self, kind: u8, body: Vec<u8>) {
        let header = encode_msg_header(kind, body.len() as u32);
        self.remaining += MSG_HEADER_LEN + body.len();
        self.msgs.push_back((header, body));
    }

    /// Collect the unwritten tail as at most `max_slices` I/O slices
    /// (callers cap below the platform's `IOV_MAX`; the rest of the tail
    /// just waits for the next call). Returns the byte total of the
    /// collected slices.
    pub fn unwritten_slices<'a>(
        &'a self,
        out: &mut Vec<std::io::IoSlice<'a>>,
        max_slices: usize,
    ) -> usize {
        out.clear();
        let mut total = 0;
        for (i, (header, body)) in self.msgs.iter().enumerate() {
            if out.len() >= max_slices {
                break;
            }
            let offset = if i == 0 { self.offset } else { 0 };
            if offset < MSG_HEADER_LEN {
                out.push(std::io::IoSlice::new(&header[offset..]));
                total += MSG_HEADER_LEN - offset;
                if !body.is_empty() && out.len() < max_slices {
                    out.push(std::io::IoSlice::new(body));
                    total += body.len();
                }
            } else if offset - MSG_HEADER_LEN < body.len() {
                out.push(std::io::IoSlice::new(&body[offset - MSG_HEADER_LEN..]));
                total += body.len() - (offset - MSG_HEADER_LEN);
            }
        }
        total
    }

    /// Consume `n` written bytes: fully-written messages pop, a partially
    /// written front message records its offset for the next slices.
    pub fn advance(&mut self, n: usize) {
        self.advance_with(n, |_| {});
    }

    /// [`WriteBatch::advance`], reporting the `kind` of every message
    /// that became fully written — the hook where a transport counts
    /// messages as *sent* (bytes handed to the kernel) rather than as
    /// queued.
    pub fn advance_with(&mut self, mut n: usize, mut on_sent: impl FnMut(u8)) {
        debug_assert!(n <= self.remaining, "advanced past the queued bytes");
        self.remaining -= n;
        while n > 0 {
            let (kind, front_len) = {
                let (header, body) = self.msgs.front().expect("advance with messages queued");
                (header[0], MSG_HEADER_LEN + body.len())
            };
            let left = front_len - self.offset;
            if n >= left {
                self.msgs.pop_front();
                self.offset = 0;
                n -= left;
                on_sent(kind);
            } else {
                self.offset += n;
                n = 0;
            }
        }
    }

    /// Surrender every queued message's body (peer declared dead; the
    /// transport kills each parcel loudly). The batch is empty afterwards.
    pub fn drain_msgs(&mut self) -> Vec<Vec<u8>> {
        self.offset = 0;
        self.remaining = 0;
        self.msgs.drain(..).map(|(_, body)| body).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_msg(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut out = encode_msg_header(kind, body.len() as u32).to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn whole_feed_yields_all_messages() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_msg(msg_kind::PARCEL, b"abc"));
        stream.extend_from_slice(&encode_msg(msg_kind::FRAME, b""));
        stream.extend_from_slice(&encode_msg(msg_kind::CONTROL, b"gossip"));
        let mut a = StreamAssembler::new();
        a.feed(&stream);
        assert_eq!(
            a.next_msg().unwrap(),
            Some((msg_kind::PARCEL, b"abc".to_vec()))
        );
        assert_eq!(a.next_msg().unwrap(), Some((msg_kind::FRAME, Vec::new())));
        assert_eq!(
            a.next_msg().unwrap(),
            Some((msg_kind::CONTROL, b"gossip".to_vec()))
        );
        assert_eq!(a.next_msg().unwrap(), None);
        assert_eq!(a.pending_bytes(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembles() {
        let msg = encode_msg(msg_kind::PARCEL_STAGED, &[7u8; 100]);
        let mut a = StreamAssembler::new();
        for &b in &msg[..msg.len() - 1] {
            a.feed(&[b]);
            assert_eq!(a.next_msg().unwrap(), None, "incomplete must not yield");
        }
        a.feed(&msg[msg.len() - 1..]);
        assert_eq!(
            a.next_msg().unwrap(),
            Some((msg_kind::PARCEL_STAGED, vec![7u8; 100]))
        );
    }

    #[test]
    fn unknown_kind_is_fatal() {
        let mut a = StreamAssembler::new();
        a.feed(&encode_msg(9, b"x"));
        assert!(a.next_msg().is_err());
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut a = StreamAssembler::new();
        a.feed(&encode_msg_header(msg_kind::FRAME, u32::MAX));
        assert!(a.next_msg().is_err());
    }

    #[test]
    fn write_batch_byte_at_a_time_matches_whole_write() {
        let mut batch = WriteBatch::new();
        batch.push(msg_kind::PARCEL, b"abc".to_vec());
        batch.push(msg_kind::FRAME, Vec::new());
        batch.push(msg_kind::CONTROL, b"gossip".to_vec());
        let total = batch.remaining_bytes();
        let mut wire = Vec::new();
        for _ in 0..total {
            {
                let mut slices = Vec::new();
                let n = batch.unwritten_slices(&mut slices, 64);
                assert!(n >= 1);
                wire.push(slices[0][0]);
            }
            batch.advance(1);
        }
        assert!(batch.is_empty());
        assert_eq!(batch.unwritten_slices(&mut Vec::new(), 64), 0);
        let mut asm = StreamAssembler::new();
        asm.feed(&wire);
        assert_eq!(
            asm.next_msg().unwrap(),
            Some((msg_kind::PARCEL, b"abc".to_vec()))
        );
        assert_eq!(asm.next_msg().unwrap(), Some((msg_kind::FRAME, Vec::new())));
        assert_eq!(
            asm.next_msg().unwrap(),
            Some((msg_kind::CONTROL, b"gossip".to_vec()))
        );
        assert_eq!(asm.next_msg().unwrap(), None);
    }

    #[test]
    fn write_batch_slice_cap_and_accounting() {
        let mut batch = WriteBatch::new();
        for i in 0..10u8 {
            batch.push(msg_kind::PARCEL, vec![i; 3]);
        }
        assert_eq!(batch.msg_count(), 10);
        let mut slices = Vec::new();
        // Cap of 4 slices = 2 messages (header + body each).
        let n = batch.unwritten_slices(&mut slices, 4);
        assert_eq!(slices.len(), 4);
        assert_eq!(n, 2 * (MSG_HEADER_LEN + 3));
        batch.advance(n);
        assert_eq!(batch.msg_count(), 8);
        assert_eq!(batch.remaining_bytes(), 8 * (MSG_HEADER_LEN + 3));
    }

    #[test]
    fn write_batch_drain_surrenders_unwritten_messages() {
        let mut batch = WriteBatch::new();
        batch.push(msg_kind::PARCEL, b"a".to_vec());
        batch.push(msg_kind::CONTROL, b"bb".to_vec());
        batch.advance(MSG_HEADER_LEN + 1); // first fully written
        let dead = batch.drain_msgs();
        assert_eq!(dead, vec![b"bb".to_vec()]);
        assert!(batch.is_empty());
        assert_eq!(batch.remaining_bytes(), 0);
    }

    #[test]
    fn handshake_roundtrip_and_rejection() {
        let h = encode_handshake(42, 7100);
        assert_eq!(decode_handshake(&h).unwrap(), (42, 7100));
        let mut bad = h;
        bad[0] ^= 0xff;
        assert!(decode_handshake(&bad).is_err());
        let mut wrong_version = h;
        wrong_version[4] = 99;
        assert!(decode_handshake(&wrong_version).is_err());
        for old in [1, 2] {
            let mut older = h;
            older[4] = old;
            assert!(
                decode_handshake(&older).is_err(),
                "a v{old} peer is refused"
            );
        }
    }

    #[test]
    fn table_roundtrip_and_rejection() {
        let table: Vec<SocketAddr> = ["127.0.0.1:7100", "[::1]:7101", "10.0.0.2:0"]
            .map(|a| a.parse().unwrap())
            .to_vec();
        let body = encode_table(&table);
        assert_eq!(decode_table(&body, 3).unwrap(), table);
        assert!(decode_table(&body, 2).is_err(), "trailing entry");
        assert!(decode_table(&body, 4).is_err(), "missing entry");
        assert!(decode_table(&body[..body.len() - 1], 3).is_err());
        // A claimed size far beyond the body allocates nothing.
        assert!(decode_table(&[], usize::MAX).is_err());
    }
}
