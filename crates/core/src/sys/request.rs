//! The split-phase request: send a parcel, get its reply — the one "ask a
//! rank, await the ack" mechanism behind the migration and directory
//! protocols, a thread's suspension on a remote LCO and its echo commits
//! (worker side, never blocking) and the driver's RPCs.
//!
//! The reply lands in a one-shot future at the asking locality, and the
//! request is one user of the rule every `FutureRef` follows
//! ([`crate::lco::FutureRef`]): its one reader — the blocked driver, or
//! the depleted thread of [`Origin::request_then`] — frees it by reading
//! it, so the store does not grow by an ack per round trip.

use crate::action::Value;
use crate::ctx::Ctx;
use crate::error::PxResult;
use crate::gid::Gid;
use crate::lco::LcoCore;
use crate::origin::Origin;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::RuntimeInner;
use std::sync::Arc;
use std::time::Duration;

impl Origin<'_> {
    /// Send the system parcel `p` with a fresh reply future at this
    /// origin's locality as its continuation, and return that future. It
    /// resolves with the action's value, or with the fault that killed
    /// the parcel anywhere along the way (a dead peer poisons it through
    /// the transport's dead-letter path; so does the cancellation of the
    /// origin's process, which owns it). The caller is its one reader: a
    /// driver thread blocks in [`RuntimeInner::wait_lco`]; a worker uses
    /// [`Origin::request_then`] instead.
    pub(crate) fn request(self, mut p: Parcel) -> Gid {
        let fut = self.new_one_shot(self.loc().id, LcoCore::new_future);
        p.cont = Continuation::set(fut);
        self.send_sys(p);
        fut
    }

    /// [`Origin::request`] from a worker: no thread ever blocks on a
    /// remote ack, the caller resumes in `on_reply` — a depleted thread
    /// of this origin (its process, its trace) on one of its locality's
    /// workers, run with the reply once reading it has freed the future.
    /// A control-lane request is answered on that lane and resumes on it
    /// too, so neither waits behind the data backlog at either end.
    pub(crate) fn request_then(
        self,
        p: Parcel,
        on_reply: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
    ) {
        let control = crate::sys::is_control(p.action);
        self.suspend_on(self.request(p), control, on_reply);
    }
}

impl RuntimeInner {
    /// [`RuntimeInner::wait_lco`] on every reply future of a fan-out, in
    /// order. All of them are read even when one fails — each is then
    /// freed, or kept on purpose by a timeout — and the first failure
    /// (fault, or `Ok(None)` for a timeout) is what is returned.
    pub(crate) fn take_replies(
        self: &Arc<Self>,
        futs: &[Gid],
        timeout: Option<Duration>,
    ) -> PxResult<Option<Vec<Value>>> {
        let mut values = Vec::with_capacity(futs.len());
        let mut failure = None;
        for &fut in futs {
            match self.wait_lco(fut, timeout) {
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
    use crate::origin::Caller;
    use crate::runtime::{Config, Runtime, RuntimeBuilder};
    use crate::stats::Counter;
    use crate::sys;

    fn at_rank_1(action: ActionId, payload: Value) -> Parcel {
        let root = Gid::locality_root(LocalityId(1));
        Parcel::new(root, action, payload, Continuation::none())
    }

    /// Every locality's store size, read off the `objects` gauge.
    fn store_sizes(rt: &Runtime) -> Vec<u64> {
        rt.stats().localities.iter().map(|l| l.objects).collect()
    }

    fn store_size(rt: &Runtime) -> usize {
        rt.inner().locality(LocalityId(0)).object_count()
    }

    #[test]
    fn every_reply_path_frees_its_future_and_a_timeout_keeps_it() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let (inner, from) = (rt.inner(), rt.origin());
        let initial = store_size(&rt);

        // Value reply, read by the driver.
        let ping = Value::encode(&7u64).unwrap();
        let fut = from.request(at_rank_1(sys::PING, ping.clone()));
        let v = inner.wait_lco(fut, None).unwrap().unwrap();
        assert_eq!(v.decode::<u64>().unwrap(), 7);
        assert_eq!(store_size(&rt), initial);

        // Fault reply: the parcel is dead-lettered at rank 1 and its
        // fault poisons the reply future.
        let fut = from.request(at_rank_1(ActionId::of("no/such"), Value::unit()));
        match inner.wait_lco(fut, None) {
            Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::UnknownAction),
            other => panic!("expected the fault, got {other:?}"),
        }
        assert_eq!(store_size(&rt), initial);

        // Depleted-waiter reply: freed before the waiter runs.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        from.request_then(at_rank_1(sys::PING, ping), move |ctx, v| {
            let _ = tx.send((v.decode::<u64>(), ctx.locality().object_count()));
        });
        let (v, size_in_waiter) = rx.recv().unwrap();
        assert_eq!((v.unwrap(), size_in_waiter), (7, initial));

        // Driver timeout: the future stays, so the late reply lands in
        // it (nobody dies of `NoSuchObject`) and the next read frees it.
        let slow = rt.new_future::<u64>(LocalityId(1));
        let get = Parcel::new(
            slow.gid(),
            sys::LCO_GET,
            Value::unit(),
            Continuation::none(),
        );
        let fut = from.request(get);
        let waited = inner.wait_lco(fut, Some(Duration::from_millis(20)));
        assert!(matches!(waited, Ok(None)), "{waited:?}");
        assert_eq!(store_size(&rt), initial + 1);
        rt.set_future(slow, &9).unwrap();
        let v = inner.wait_lco(fut, None).unwrap().unwrap();
        assert_eq!(v.decode::<u64>().unwrap(), 9);
        assert_eq!(store_size(&rt), initial);

        // The user's `wait_timeout` is the same rule: the timed-out wait
        // withdraws its waiter, the late set leaves the value for the
        // retry, and the retry's read frees the future.
        let all = store_sizes(&rt);
        let user = rt.new_future::<u64>(LocalityId(0));
        assert_eq!(
            user.wait_timeout(&rt, Duration::from_millis(20)).unwrap(),
            None
        );
        rt.set_future(user, &11).unwrap();
        assert_eq!(store_sizes(&rt)[0], all[0] + 1, "a timeout is not a read");
        assert_eq!(
            user.wait_timeout(&rt, Duration::from_secs(10)).unwrap(),
            Some(11)
        );
        assert_eq!(store_sizes(&rt), all);
        // And the firing racing the timeout, from either side of it: a
        // retry never finds the future gone, whoever won.
        for i in 0..200u64 {
            let fut = rt.new_future::<u64>(LocalityId(1));
            rt.spawn_at(LocalityId(1), move |ctx| ctx.set_future(fut, &i).unwrap());
            let short = Duration::from_micros(i % 50);
            let got = loop {
                if let Some(v) = fut.wait_timeout(&rt, short).unwrap() {
                    break v;
                }
            };
            assert_eq!(got, i);
        }
        assert_eq!(store_sizes(&rt), all);
        // The one death so far is the unknown action's.
        assert_eq!(rt.stats().total().dead_parcels, 1);
        rt.shutdown();
    }

    /// Every client-side round trip is a request: a thread suspending on
    /// a remote future or semaphore, an echo commit from a thread or
    /// from the driver. A thousand of each leave the asking locality's
    /// store where it was (the parent commit: one dead proxy each).
    #[test]
    fn remote_suspensions_and_echo_commits_leave_the_store_flat() {
        use crate::echo;
        const N: u64 = 1000;
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let l1 = LocalityId(1);
        let futs: Vec<_> = (0..N).map(|_| rt.new_future::<u64>(l1)).collect();
        let sem = rt.new_semaphore(l1, 1);
        let root = echo::create_tree(&rt, l1, 2, &0u64).unwrap().root;
        let done = rt.new_and_gate(l1, 2 * N);
        let initial = store_size(&rt);
        for fut in futs {
            rt.set_future(fut, &1).unwrap();
            rt.spawn_at(LocalityId(0), move |ctx| {
                ctx.when_future(fut, move |ctx, _| {
                    ctx.acquire(sem, move |ctx| {
                        ctx.release(sem);
                        ctx.trigger_value(done, Value::unit());
                    });
                });
                echo::commit::<u64, _>(ctx, root, 1, move |ctx, verdict| {
                    assert!(matches!(verdict, Ok(echo::CommitOutcome::Valid)));
                    ctx.trigger_value(done, Value::unit());
                })
                .unwrap();
            });
        }
        rt.wait_value(done).unwrap();
        for _ in 0..N {
            let stale = echo::commit_blocking::<u64>(&rt, root, 0).unwrap();
            assert!(matches!(
                stale,
                echo::CommitOutcome::Stale { version: 1, .. }
            ));
        }
        assert_eq!(store_size(&rt), initial);
        assert_eq!(rt.stats().total().dead_parcels, 0);
        rt.shutdown();
    }

    /// A control-lane request is answered on that lane and resumes its
    /// requester there: behind a one-worker locality's backlog of `N`
    /// closures, the resumption runs after the closure that was running
    /// when the reply landed, not after all `N`.
    #[test]
    fn a_control_request_resumes_ahead_of_the_backlog() {
        const N: u64 = 16;
        let mut s = RuntimeBuilder::new(Config::small(2, 1)).stepped(0);
        let (ran, (tx, rx)) = (Arc::new(Counter::default()), std::sync::mpsc::channel());
        let backlog = ran.clone();
        s.rt.spawn_at(LocalityId(0), move |ctx| {
            for _ in 0..N {
                let ran = backlog.clone();
                ctx.spawn(move |_| {
                    ran.add(1);
                });
            }
            let ask = sys::bare(Gid::locality_root(LocalityId(1)), sys::METRICS_PULL);
            ctx.origin().request_then(ask, move |_, v| {
                tx.send((v.is_fault(), backlog.get())).unwrap();
            });
        });
        // The request leaves; one closure runs while it is served.
        assert!(s.turn(0) && s.turn(0) && s.turn(1));
        s.settle();
        assert_eq!(rx.try_recv().unwrap(), (false, 1));
        assert_eq!(ran.get(), N);
    }

    #[test]
    fn a_failed_fan_out_still_takes_every_reply() {
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let inner = rt.inner();
        let loc = inner.locality(LocalityId(0));
        let initial = store_size(&rt);
        let futs: Vec<Gid> = (0..4)
            .map(|_| rt.origin().new_one_shot(loc.id, LcoCore::new_future))
            .collect();
        let fault = Fault::new(
            FaultCause::Transport,
            sys::METRICS_PULL,
            futs[0],
            "peer lost",
        );
        inner.lco_route(
            loc,
            futs[0],
            sys::LCO_SET,
            Value::error(&fault),
            None,
            false,
        );
        for &fut in &futs[1..] {
            inner.lco_route(loc, fut, sys::LCO_SET, Value::unit(), None, false);
        }
        match inner.take_replies(&futs, None) {
            Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::Transport),
            other => panic!("expected the first rank's fault, got {other:?}"),
        }
        assert_eq!(store_size(&rt), initial, "the other ranks' futures leaked");
        rt.shutdown();
    }
}
