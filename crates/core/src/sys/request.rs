//! The split-phase request: send a parcel, get its reply — the one "ask a
//! rank, await the ack" mechanism behind the migration and directory
//! protocols (worker side, never blocking) and the driver's RPCs.
//!
//! The reply lands in a one-shot future at the asking locality. Nothing
//! but the request's continuation ever learns that future's gid, so
//! whoever takes the reply also removes the future: the store does not
//! grow by an ack per round trip.

use crate::action::Value;
use crate::error::PxResult;
use crate::gid::Gid;
use crate::lco::Waiter;
use crate::locality::Locality;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::{Ctx, RuntimeInner};
use std::sync::Arc;
use std::time::Duration;

impl RuntimeInner {
    /// Send `p` from `from` with a fresh reply future as its
    /// continuation, and return that future. It resolves with the
    /// action's value, or with the fault that killed the parcel anywhere
    /// along the way (a dead peer poisons it through the transport's
    /// dead-letter path). The caller owns it: a driver thread blocks in
    /// [`RuntimeInner::take_reply`]; a worker uses
    /// [`RuntimeInner::request_then`] instead.
    pub(crate) fn request(self: &Arc<Self>, from: &Arc<Locality>, mut p: Parcel) -> Gid {
        let fut = from.new_future_lco();
        p.cont = Continuation::set(fut);
        self.send_parcel(from.id, p);
        fut
    }

    /// [`RuntimeInner::request`] from a worker: no thread ever blocks on
    /// a remote ack, the protocol resumes in `on_reply` — a depleted
    /// thread on one of `from`'s workers, run with the reply once the
    /// reply future is freed.
    pub(crate) fn request_then(
        self: &Arc<Self>,
        from: &Arc<Locality>,
        p: Parcel,
        on_reply: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
    ) {
        let fut = self.request(from, p);
        let resume = move |ctx: &mut Ctx<'_>, v: Value| {
            ctx.locality().remove(fut);
            on_reply(ctx, v)
        };
        // Nothing else removes the future, so it is there — fired already
        // or not (then the waiter is activated here).
        let lco = from.get_lco(fut).expect("reply future just created");
        let acts = lco.lock().add_waiter(Waiter::Depleted(Box::new(resume)));
        self.schedule_activations(from, acts, None);
    }

    /// Block the calling (driver, never worker) thread on the reply
    /// future of a [`RuntimeInner::request`] and free it once the reply —
    /// value or fault — is taken. On a timeout (`Ok(None)`) the future
    /// stays, so a late reply still finds its target instead of dying as
    /// `NoSuchObject`.
    pub(crate) fn take_reply(
        self: &Arc<Self>,
        fut: Gid,
        timeout: Option<Duration>,
    ) -> PxResult<Option<Value>> {
        let reply = self.wait_lco(fut, timeout);
        if !matches!(reply, Ok(None)) {
            self.locality(fut.birthplace()).remove(fut);
        }
        reply
    }

    /// [`RuntimeInner::take_reply`] on every future of a fan-out, in
    /// order. All of them are taken even when one fails — each is then
    /// freed, or left on purpose by the timeout rule — and the first
    /// failure (fault, or `Ok(None)` for a timeout) is what is returned.
    pub(crate) fn take_replies(
        self: &Arc<Self>,
        futs: &[Gid],
        timeout: Option<Duration>,
    ) -> PxResult<Option<Vec<Value>>> {
        let mut values = Vec::with_capacity(futs.len());
        let mut failure = None;
        for &fut in futs {
            match self.take_reply(fut, timeout) {
                Ok(Some(v)) => values.push(v),
                failed => {
                    failure.get_or_insert(failed);
                }
            }
        }
        match failure {
            None => Ok(Some(values)),
            Some(failed) => failed.map(|_| None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionId;
    use crate::error::{Fault, FaultCause, PxError};
    use crate::gid::LocalityId;
    use crate::runtime::{Config, Runtime, RuntimeBuilder};
    use crate::sys;

    fn at_rank_1(action: ActionId, payload: Value) -> Parcel {
        let root = Gid::locality_root(LocalityId(1));
        Parcel::new(root, action, payload, Continuation::none())
    }

    fn store_size(rt: &Runtime) -> usize {
        rt.inner().locality(LocalityId(0)).object_count()
    }

    #[test]
    fn every_reply_path_frees_its_future_and_a_timeout_keeps_it() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let inner = rt.inner();
        let loc = inner.locality(LocalityId(0));
        let initial = store_size(&rt);

        // Value reply, taken by the driver.
        let ping = Value::encode(&7u64).unwrap();
        let fut = inner.request(loc, at_rank_1(sys::PING, ping.clone()));
        let v = inner.take_reply(fut, None).unwrap().unwrap();
        assert_eq!(v.decode::<u64>().unwrap(), 7);
        assert_eq!(store_size(&rt), initial);

        // Fault reply: the parcel is dead-lettered at rank 1 and its
        // fault poisons the reply future.
        let fut = inner.request(loc, at_rank_1(ActionId::of("no/such"), Value::unit()));
        match inner.take_reply(fut, None) {
            Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::UnknownAction),
            other => panic!("expected the fault, got {other:?}"),
        }
        assert_eq!(store_size(&rt), initial);

        // Depleted-waiter reply: freed before the waiter runs.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        inner.request_then(loc, at_rank_1(sys::PING, ping), move |ctx, v| {
            let _ = tx.send((v.decode::<u64>(), ctx.locality().object_count()));
        });
        let (v, size_in_waiter) = rx.recv().unwrap();
        assert_eq!((v.unwrap(), size_in_waiter), (7, initial));

        // Driver timeout: the future stays, so the late reply lands in
        // it (nobody dies of `NoSuchObject`) and the next take frees it.
        let slow = rt.new_future::<u64>(LocalityId(1));
        let get = Parcel::new(
            slow.gid(),
            sys::LCO_GET,
            Value::unit(),
            Continuation::none(),
        );
        let fut = inner.request(loc, get);
        let waited = inner.take_reply(fut, Some(Duration::from_millis(20)));
        assert!(matches!(waited, Ok(None)), "{waited:?}");
        assert_eq!(store_size(&rt), initial + 1);
        rt.set_future(slow, &9).unwrap();
        let v = inner.take_reply(fut, None).unwrap().unwrap();
        assert_eq!(v.decode::<u64>().unwrap(), 9);
        assert_eq!(store_size(&rt), initial);
        // The one death so far is the unknown action's.
        assert_eq!(rt.stats().total().dead_parcels, 1);
        rt.shutdown();
    }

    #[test]
    fn a_failed_fan_out_still_takes_every_reply() {
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let inner = rt.inner();
        let loc = inner.locality(LocalityId(0));
        let initial = store_size(&rt);
        let futs: Vec<Gid> = (0..4).map(|_| loc.new_future_lco()).collect();
        let fault = Fault::new(
            FaultCause::Transport,
            sys::METRICS_PULL,
            futs[0],
            "peer lost",
        );
        inner.lco_route(loc, futs[0], sys::LCO_SET, Value::error(&fault), None);
        for &fut in &futs[1..] {
            inner.lco_route(loc, fut, sys::LCO_SET, Value::unit(), None);
        }
        match inner.take_replies(&futs, None) {
            Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::Transport),
            other => panic!("expected the first rank's fault, got {other:?}"),
        }
        assert_eq!(store_size(&rt), initial, "the other ranks' futures leaked");
        rt.shutdown();
    }
}
