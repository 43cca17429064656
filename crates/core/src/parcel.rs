//! Parcels: message-driven computation with continuation specifiers.
//!
//! §2.2: "A parcel includes a destination virtual address of a remote
//! target object and an action specifier defining a task to be applied to
//! that object. Additional argument values can be carried by the parcel …
//! Parcels differ from other such constructs such as active messages in
//! that it also carries a **continuation specifier** that defines what
//! happens after the specified action is completed. This allows the locus
//! of control to migrate across the distributed system."
//!
//! A parcel therefore has four parts: destination, action, arguments, and
//! continuation. The continuation is a small program: a list of steps each
//! consuming the action's result value.
//!
//! ## The spend obligation
//!
//! Because a parcel names what happens next, one that vanishes strands
//! every future, gate and waiter downstream of it. So a parcel the runtime
//! has taken charge of has three ends and no others: `sched::complete`
//! (the action's value goes to the continuation), `sched::kill_parcel` (a
//! counted, reported fault goes there instead), or a by-value encode onto
//! the wire (`Parcel::ship_into`, into the frame `net::Wire::send_parcel`
//! ships — a port's, or a frame of one) that makes it the next rank's. In
//! between it only changes hands: a run queue, the migration park, a
//! protocol step that keeps it until its ack.
//!
//! Debug builds (`cfg(debug_assertions)`; nothing else selects it) hold
//! every executed path to that. A parcel is *unarmed* as built by
//! [`Parcel::new`], [`Parcel::decode`] or `clone` — its owner may drop it
//! — and *armed* where the runtime takes ownership: `Origin::send_toward`,
//! the one sender, and a worker's decode of a wire delivery. Only the
//! three ends (and the LCO waiter handoff, which moves the continuation
//! into the LCO) disarm it. An armed parcel dropped anywhere else — any
//! file, binding shape or control flow — is reported with destination,
//! action and arming site, and its runtime's driver fails with the report
//! at its next blocking wait (instead of hanging on the answer) or at
//! [`crate::runtime::Runtime::shutdown`]; what is still queued when that
//! returns is abandoned by decision (`net/mod.rs`, contract point 4).
//! Release builds carry no field and no check. The blind spot is a branch
//! nothing executes.

use crate::action::{ActionId, Value};
use crate::gid::{Gid, LocalityId};
use px_wire::{WireReader, WireWriter};
use serde::{Deserialize, Serialize};

/// One step of a continuation specifier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContStep {
    /// Trigger an LCO with the result value (e.g. fill a future).
    SetLco(Gid),
    /// Send a further parcel: apply `action` to `target` with the result
    /// value as its (already encoded) argument. This is how the locus of
    /// control migrates: the computation keeps moving without returning.
    Call {
        /// Action applied next.
        action: ActionId,
        /// Target object of the follow-on parcel.
        target: Gid,
    },
    /// Contribute the result to a reduction LCO (adds rather than assigns).
    Contribute(Gid),
}

/// A continuation specifier: zero or more steps, each fed the result of
/// the parcel's action.
///
/// The empty continuation discards the result (fire-and-forget).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Continuation {
    /// Steps executed in order when the action completes.
    pub steps: Vec<ContStep>,
}

impl Continuation {
    /// The empty (fire-and-forget) continuation.
    #[inline]
    pub fn none() -> Continuation {
        Continuation { steps: Vec::new() }
    }

    /// Continuation that triggers a single LCO.
    #[inline]
    pub fn set(lco: Gid) -> Continuation {
        Continuation {
            steps: vec![ContStep::SetLco(lco)],
        }
    }

    /// Continuation that chains into another action (control migrates).
    #[inline]
    pub fn call(action: ActionId, target: Gid) -> Continuation {
        Continuation {
            steps: vec![ContStep::Call { action, target }],
        }
    }

    /// Continuation that contributes to a reduction LCO.
    #[inline]
    pub fn contribute(lco: Gid) -> Continuation {
        Continuation {
            steps: vec![ContStep::Contribute(lco)],
        }
    }

    /// Append a step, builder-style.
    pub fn then(mut self, step: ContStep) -> Continuation {
        self.steps.push(step);
        self
    }

    /// True when the continuation does nothing.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A parcel: the unit of inter-locality communication and of work-to-data
/// migration.
#[derive(Debug, Clone)]
pub struct Parcel {
    /// Destination object (resolved to a locality by the AGAS).
    pub dest: Gid,
    /// Action applied to the destination.
    pub action: ActionId,
    /// Encoded arguments.
    pub payload: Value,
    /// What happens with the action's result.
    pub cont: Continuation,
    /// Originating locality (provenance, used for AGAS cache-repair hints).
    pub src: LocalityId,
    /// Owning parallel process, if any: the spawned thread is accounted to
    /// this process for termination detection.
    pub process: Option<Gid>,
    /// Causal trace id, if this parcel is traced: every event it causes
    /// (dispatch, LCO trigger, fault, follow-on parcels) is recorded
    /// under this id so the request can be replayed end to end.
    pub trace: Option<u64>,
    /// Number of times this parcel has been forwarded after a stale AGAS
    /// resolution (each hop increments; bounded by the migration rate).
    pub hops: u8,
    /// Deliver into the destination's percolation staging buffer instead of
    /// the general run queue (the prestaging variant of parcels, §2.2:
    /// percolation "is a variation of parcels but used with hardware as the
    /// target").
    pub staged: bool,
    /// The spend obligation (see the module docs); unarmed as built.
    #[cfg(debug_assertions)]
    spend: Obligation,
}

// The obligation must cost the measured build nothing, layout included:
// without it a `Parcel` is 112 bytes (a 32-byte `Value` payload).
#[cfg(all(not(debug_assertions), target_pointer_width = "64"))]
const _: () = assert!(size_of::<Parcel>() == 112);

/// Where and for whom a parcel was armed.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct Armed {
    log: std::sync::Arc<LostLog>,
    dest: Gid,
    action: ActionId,
    at: &'static std::panic::Location<'static>,
}

/// A parcel's spend obligation: `Some` while armed. Its `Drop` is the
/// check — `Parcel` itself has none, so handlers may still move fields
/// out of one.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct Obligation(Option<Armed>);

#[cfg(debug_assertions)]
impl Clone for Obligation {
    /// A copy is a new value nobody has taken charge of: unarmed.
    fn clone(&self) -> Obligation {
        Obligation(None)
    }
}

#[cfg(debug_assertions)]
impl Drop for Obligation {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            a.log.lost(format!(
                "parcel lost: {:?} for {} was armed at {} and dropped without \
                 complete, kill_parcel or a wire encode",
                a.action, a.dest, a.at
            ));
        }
    }
}

/// One runtime's record of the armed parcels it dropped. The drop itself
/// never panics — it may be on a worker, whose silent death reports
/// nothing, or mid-unwind: the loss is printed, kept here, and raised on
/// the driver thread by [`LostLog::fail_if_any`].
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub(crate) struct LostLog {
    lost: parking_lot::Mutex<Vec<String>>,
    /// Set once `shutdown` has stopped the workers: what is dropped from
    /// then on was abandoned with the runtime, not lost by it.
    closed: std::sync::atomic::AtomicBool,
}

#[cfg(debug_assertions)]
impl LostLog {
    fn lost(&self, what: String) {
        // SeqCst: pairs with `close`; the workers are joined by then.
        if !self.closed.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!("{what}");
            self.lost.lock().push(what);
        }
    }

    /// Stop recording: the runtime is down.
    pub(crate) fn close(&self) {
        self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Panic on the calling (driver) thread with every loss recorded so
    /// far — unless it is already unwinding.
    #[track_caller]
    pub(crate) fn fail_if_any(&self) {
        let lost = std::mem::take(&mut *self.lost.lock());
        if !lost.is_empty() && !std::thread::panicking() {
            panic!("{}", lost.join("\n"));
        }
    }
}

impl Parcel {
    /// Construct a plain parcel.
    pub fn new(dest: Gid, action: ActionId, payload: Value, cont: Continuation) -> Parcel {
        Parcel {
            dest,
            action,
            payload,
            cont,
            src: LocalityId(0),
            process: None,
            trace: None,
            hops: 0,
            staged: false,
            #[cfg(debug_assertions)]
            spend: Obligation::default(),
        }
    }

    /// The runtime takes charge of this parcel: from here it must reach
    /// one of its three ends (see the module docs). Re-arming moves the
    /// recorded place.
    #[inline]
    #[track_caller]
    pub(crate) fn arm(&mut self, rt: &crate::runtime::RuntimeInner) {
        #[cfg(debug_assertions)]
        {
            self.spend.0 = Some(Armed {
                log: rt.lost.clone(),
                dest: self.dest,
                action: self.action,
                at: std::panic::Location::caller(),
            });
        }
        #[cfg(not(debug_assertions))]
        let _ = rt;
    }

    /// This parcel has reached an end. Only `complete`, `kill_parcel`,
    /// the by-value encode below and the LCO waiter handoff call it.
    #[inline]
    pub(crate) fn spend(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.spend.0 = None;
        }
    }

    /// Encode onto the wire — into the frame that carries it — ending the
    /// parcel here: the next rank decodes and arms its own.
    pub(crate) fn ship_into(mut self, w: &mut WireWriter) {
        self.spend();
        self.encode_into(w);
    }

    /// Put the parcel under `trace` (builder style).
    pub(crate) fn with_trace(mut self, trace: Option<u64>) -> Parcel {
        self.trace = trace;
        self
    }

    /// Encode to wire bytes (header + continuation + payload).
    ///
    /// Hand-rolled framing rather than serde: this is the per-message hot
    /// path, and the continuation list is almost always 0 or 1 steps.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(40 + self.payload.len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encode into a caller-provided buffer — the wire's path, where a
    /// parcel is encoded straight into the [`px_wire::FrameBuf`] that
    /// carries it and no per-parcel `Vec` is allocated.
    pub fn encode_into(&self, w: &mut WireWriter) {
        use px_wire::parcel_flags as pf;
        w.put_u64(self.dest.0);
        w.put_u64(self.action.0);
        w.put_u16(self.src.0);
        w.put_u8(self.hops);
        // Flags byte (layout fixed in `px_wire::parcel_flags`). Optional
        // header fields are gated on flag bits — a pid-less parcel writes
        // no pid bytes at all, so parcels outside any process encode
        // bit-identically whether or not the process subsystem is in use.
        let mut flags = 0u8;
        if self.staged {
            flags |= pf::STAGED;
        }
        if self.payload.is_fault() {
            flags |= pf::FAULT;
        }
        if self.process.is_some() {
            flags |= pf::HAS_PID;
        }
        if self.trace.is_some() {
            flags |= pf::HAS_TRACE;
        }
        w.put_u8(flags);
        if let Some(g) = self.process {
            w.put_u64(g.0);
        }
        if let Some(t) = self.trace {
            w.put_u64(t);
        }
        w.put_varint(self.cont.steps.len() as u64);
        for step in &self.cont.steps {
            match step {
                ContStep::SetLco(g) => {
                    w.put_u8(0);
                    w.put_u64(g.0);
                }
                ContStep::Call { action, target } => {
                    w.put_u8(1);
                    w.put_u64(action.0);
                    w.put_u64(target.0);
                }
                ContStep::Contribute(g) => {
                    w.put_u8(2);
                    w.put_u64(g.0);
                }
            }
        }
        w.put_len_bytes(self.payload.bytes());
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Parcel, px_wire::WireError> {
        use px_wire::parcel_flags as pf;
        let mut r = WireReader::new(bytes);
        let dest = Gid(r.get_u64()?);
        let action = ActionId(r.get_u64()?);
        let src = LocalityId(r.get_u16()?);
        let hops = r.get_u8()?;
        let flags = r.get_u8()?;
        if flags & !pf::KNOWN != 0 {
            // A newer sender gated extra header bytes on a bit we don't
            // know: parsing the rest as continuation/payload would be
            // silent corruption — reject loudly instead.
            return Err(px_wire::WireError::Message(format!(
                "unknown parcel flag bits {:#04x}",
                flags & !pf::KNOWN
            )));
        }
        let staged = flags & pf::STAGED != 0;
        let payload_fault = flags & pf::FAULT != 0;
        let process = if flags & pf::HAS_PID != 0 {
            Some(Gid(r.get_u64()?))
        } else {
            None
        };
        let trace = if flags & pf::HAS_TRACE != 0 {
            Some(r.get_u64()?)
        } else {
            None
        };
        // A step is at least 9 bytes: a count the rest of the input cannot
        // hold is corrupt, and must not size an allocation.
        let n = r.get_varint()?;
        if n > (r.remaining() / 9) as u64 {
            return Err(px_wire::WireError::LengthExceedsInput {
                len: n,
                remaining: r.remaining(),
            });
        }
        let mut steps = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let tag = r.get_u8()?;
            steps.push(match tag {
                0 => ContStep::SetLco(Gid(r.get_u64()?)),
                1 => ContStep::Call {
                    action: ActionId(r.get_u64()?),
                    target: Gid(r.get_u64()?),
                },
                _ => ContStep::Contribute(Gid(r.get_u64()?)),
            });
        }
        let payload = Value::from_slice(r.get_len_bytes()?, payload_fault);
        Ok(Parcel {
            dest,
            action,
            payload,
            cont: Continuation { steps },
            src,
            process,
            trace,
            hops,
            staged,
            #[cfg(debug_assertions)]
            spend: Obligation::default(),
        })
    }

    /// Read the trace id out of already-encoded parcel bytes without a
    /// full decode — the transport-side trace hooks peek at in-flight
    /// records and must not pay a decode per parcel. Returns `None` for
    /// untraced or malformed bytes.
    pub fn peek_trace(bytes: &[u8]) -> Option<u64> {
        use px_wire::parcel_flags as pf;
        let flags = *bytes.get(19)?;
        if flags & pf::HAS_TRACE == 0 {
            return None;
        }
        let at = if flags & pf::HAS_PID != 0 { 28 } else { 20 };
        Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
    }

    /// Wire size in bytes (without re-encoding).
    pub fn wire_size(&self) -> usize {
        let mut n = 8 + 8 + 2 + 1 + 1; // dest + action + src + hops + flags
        if self.process.is_some() {
            n += 8; // owning pid, present only when flagged
        }
        if self.trace.is_some() {
            n += 8; // trace id, present only when flagged
        }
        n += varint_len(self.steps_len() as u64);
        for step in &self.cont.steps {
            n += match step {
                ContStep::SetLco(_) | ContStep::Contribute(_) => 1 + 8,
                ContStep::Call { .. } => 1 + 16,
            };
        }
        n += varint_len(self.payload.len() as u64) + self.payload.len();
        n
    }

    #[inline]
    fn steps_len(&self) -> usize {
        self.cont.steps.len()
    }
}

#[inline]
fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::GidKind;

    fn sample_parcel() -> Parcel {
        let mut p = Parcel::new(
            Gid::new(LocalityId(3), GidKind::Data, 42),
            ActionId::of("test/action"),
            Value::encode(&vec![1u64, 2, 3]).unwrap(),
            Continuation::set(Gid::new(LocalityId(1), GidKind::Lco, 7))
                .then(ContStep::Call {
                    action: ActionId::of("test/next"),
                    target: Gid::new(LocalityId(2), GidKind::Data, 9),
                })
                .then(ContStep::Contribute(Gid::new(
                    LocalityId(0),
                    GidKind::Lco,
                    99,
                ))),
        );
        p.src = LocalityId(5);
        p.process = Some(Gid::new(LocalityId(0), GidKind::Process, 17));
        p.trace = Some(0xfeed_beef_cafe_f00d);
        p.hops = 2;
        p.staged = true;
        p
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample_parcel();
        let bytes = p.encode();
        let q = Parcel::decode(&bytes).unwrap();
        assert_eq!(q.dest, p.dest);
        assert_eq!(q.action, p.action);
        assert_eq!(q.src, p.src);
        assert_eq!(q.hops, p.hops);
        assert_eq!(q.staged, p.staged);
        assert_eq!(q.process, p.process);
        assert_eq!(q.trace, p.trace);
        assert_eq!(q.cont, p.cont);
        assert_eq!(q.payload.bytes(), p.payload.bytes());
    }

    #[test]
    fn encode_into_matches_encode() {
        let p = sample_parcel();
        let mut w = WireWriter::with_capacity(0);
        w.put_u8(0xaa); // pre-existing content must be preserved
        p.encode_into(&mut w);
        assert_eq!(&w.as_slice()[1..], p.encode().as_slice());
    }

    #[test]
    fn wire_size_matches_encoding() {
        let p = sample_parcel();
        assert_eq!(p.wire_size(), p.encode().len());
        let q = Parcel::new(
            Gid::locality_root(LocalityId(0)),
            ActionId::of("a"),
            Value::unit(),
            Continuation::none(),
        );
        assert_eq!(q.wire_size(), q.encode().len());
    }

    /// A unit payload is one zero length byte on the wire, and decodes
    /// back to the unit value.
    #[test]
    fn minimal_parcel_roundtrip() {
        let p = Parcel::new(
            Gid::locality_root(LocalityId(0)),
            ActionId::of("noop"),
            Value::unit(),
            Continuation::none(),
        );
        let mut expected = Vec::new();
        expected.extend_from_slice(&p.dest.0.to_le_bytes());
        expected.extend_from_slice(&p.action.0.to_le_bytes());
        expected.extend_from_slice(&[0, 0, 0, 0]); // src, hops, flags
        expected.extend_from_slice(&[0, 0]); // no continuation, no payload
        assert_eq!(p.encode(), expected, "unit layout drifted");
        let q = Parcel::decode(&expected).unwrap();
        assert!(q.cont.is_none());
        assert!(q.payload.is_empty());
        assert_eq!(q.payload, Value::unit());
        assert_eq!(q.payload, Value::default());
        assert_eq!(q.process, None);
        assert_eq!(q.trace, None);
    }

    #[test]
    fn fault_payload_survives_the_wire() {
        use crate::error::{Fault, FaultCause};
        let f = Fault::new(
            FaultCause::HopCap,
            ActionId::of("test/action"),
            Gid::new(LocalityId(3), GidKind::Data, 42),
            "hop budget exhausted",
        );
        let p = Parcel::new(
            Gid::new(LocalityId(1), GidKind::Lco, 7),
            crate::sys::LCO_SET,
            Value::error(&f),
            Continuation::none(),
        );
        let q = Parcel::decode(&p.encode()).unwrap();
        assert!(q.payload.is_fault());
        assert_eq!(q.payload.fault().unwrap(), f);
        assert!(!q.staged, "fault bit must not bleed into staged");
        assert_eq!(p.wire_size(), p.encode().len());
    }

    /// Acceptance pin: a pid-less parcel's bytes are exactly the
    /// documented header layout with *no* pid field — attaching a process
    /// to other parcels cannot perturb parcels outside any process.
    #[test]
    fn pidless_parcels_are_bit_identical_to_the_fixed_layout() {
        let mut p = Parcel::new(
            Gid::new(LocalityId(3), GidKind::Data, 42),
            ActionId::of("test/action"),
            Value::encode(&vec![0xdeu8, 0xad]).unwrap(),
            Continuation::set(Gid::new(LocalityId(1), GidKind::Lco, 7)),
        );
        p.src = LocalityId(5);
        p.hops = 2;
        p.staged = true;
        let mut expected = Vec::new();
        expected.extend_from_slice(&p.dest.0.to_le_bytes());
        expected.extend_from_slice(&p.action.0.to_le_bytes());
        expected.extend_from_slice(&5u16.to_le_bytes());
        expected.push(2); // hops
        expected.push(px_wire::parcel_flags::STAGED); // flags: staged only
        expected.push(1); // one continuation step
        expected.push(0); // SetLco tag
        expected.extend_from_slice(&Gid::new(LocalityId(1), GidKind::Lco, 7).0.to_le_bytes());
        expected.push(3); // payload length varint
        expected.extend_from_slice(&[2, 0xde, 0xad]); // the Vec<u8> payload
        assert_eq!(p.encode(), expected, "pid-less layout drifted");
        let back = Parcel::decode(&expected).unwrap();
        assert_eq!(back.payload.decode::<Vec<u8>>().unwrap(), [0xde, 0xad]);

        // Attaching a pid changes exactly two things: the HAS_PID flag
        // bit and eight pid bytes after the flags byte.
        let pid = Gid::new(LocalityId(0), GidKind::Process, 17);
        let mut q = p.clone();
        q.process = Some(pid);
        let qb = q.encode();
        assert_eq!(qb.len(), expected.len() + 8);
        assert_eq!(qb[19], expected[19] | px_wire::parcel_flags::HAS_PID);
        assert_eq!(&qb[20..28], &pid.0.to_le_bytes());
        assert_eq!(&qb[..19], &expected[..19]);
        assert_eq!(&qb[28..], &expected[20..]);

        // Attaching a trace id changes exactly two things: the HAS_TRACE
        // flag bit and eight trace bytes after the flags byte — untraced
        // parcels stay bit-identical whether or not tracing is compiled
        // in, configured, or active elsewhere in the run.
        let trace = 0x0123_4567_89ab_cdefu64;
        let mut t = p.clone();
        t.trace = Some(trace);
        let tb = t.encode();
        assert_eq!(tb.len(), expected.len() + 8);
        assert_eq!(tb[19], expected[19] | px_wire::parcel_flags::HAS_TRACE);
        assert_eq!(&tb[20..28], &trace.to_le_bytes());
        assert_eq!(&tb[..19], &expected[..19]);
        assert_eq!(&tb[28..], &expected[20..]);

        // With both optional fields present the pid comes first, then the
        // trace id.
        let mut b = p.clone();
        b.process = Some(pid);
        b.trace = Some(trace);
        let bb = b.encode();
        assert_eq!(bb.len(), expected.len() + 16);
        assert_eq!(
            bb[19],
            expected[19] | px_wire::parcel_flags::HAS_PID | px_wire::parcel_flags::HAS_TRACE
        );
        assert_eq!(&bb[20..28], &pid.0.to_le_bytes());
        assert_eq!(&bb[28..36], &trace.to_le_bytes());
        assert_eq!(&bb[36..], &expected[20..]);
    }

    #[test]
    fn peek_trace_reads_without_decoding() {
        let p = sample_parcel(); // pid + trace both present
        assert_eq!(Parcel::peek_trace(&p.encode()), p.trace);
        let mut q = sample_parcel();
        q.process = None;
        assert_eq!(Parcel::peek_trace(&q.encode()), q.trace);
        q.trace = None;
        assert_eq!(Parcel::peek_trace(&q.encode()), None);
        assert_eq!(Parcel::peek_trace(&[]), None);
        assert_eq!(Parcel::peek_trace(&q.encode()[..10]), None);
    }

    #[test]
    fn truncated_parcel_rejected() {
        let bytes = sample_parcel().encode();
        assert!(Parcel::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn continuation_builders() {
        assert!(Continuation::none().is_none());
        let c = Continuation::set(Gid(1));
        assert_eq!(c.steps.len(), 1);
        let c = c.then(ContStep::Contribute(Gid(2)));
        assert_eq!(c.steps.len(), 2);
    }
}
