//! Ranks, blocking message passing, barriers, and the remote store.

use parking_lot::{Condvar, Mutex, RwLock};
use px_core::net::WireModel;
use serde::{de::DeserializeOwned, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved tag space: user tags must stay below this.
pub const SYS_TAG_BASE: u32 = 0xffff_0000;
/// Barrier arrival/release tag.
pub const TAG_BARRIER: u32 = SYS_TAG_BASE;
/// Remote-store request tag.
pub const TAG_STORE_REQ: u32 = SYS_TAG_BASE + 1;
/// Remote-store reply tag.
pub const TAG_STORE_REP: u32 = SYS_TAG_BASE + 2;
/// Collective reduction tag.
pub const TAG_REDUCE: u32 = SYS_TAG_BASE + 3;

/// A message in a rank's mailbox.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender rank.
    pub from: usize,
    /// User or system tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Envelopes, each with the instant it is due.
type Queue = VecDeque<(Instant, Envelope)>;

/// Blocking mailbox with `(from, tag)` matching (MPI-style out-of-order
/// matching: a recv takes the oldest arrived message satisfying the
/// filter). A message arrives at the instant it is stamped due: the wire
/// is the mailbox holding it until then.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<Queue>,
    cv: Condvar,
}

impl Mailbox {
    fn deliver(&self, env: Envelope, due: Instant) {
        let mut q = self.queue.lock();
        q.push_back((due, env));
        self.cv.notify_all();
    }

    /// When the matching message due first (ties: sent first) is due,
    /// and where it is.
    fn first(q: &Queue, from: Option<usize>, tag: u32) -> Option<(Instant, usize)> {
        let hit = |e: &Envelope| e.tag == tag && from.is_none_or(|f| e.from == f);
        let hits = q.iter().enumerate().filter(|(_, (_, e))| hit(e));
        hits.map(|(pos, &(due, _))| (due, pos)).min()
    }

    /// Blocking matched receive.
    fn recv(&self, from: Option<usize>, tag: u32) -> Envelope {
        let mut q = self.queue.lock();
        loop {
            match Self::first(&q, from, tag) {
                Some((due, pos)) if due <= Instant::now() => {
                    return q.remove(pos).expect("position valid").1;
                }
                Some((due, _)) => drop(self.cv.wait_until(&mut q, due)),
                None => self.cv.wait(&mut q),
            }
        }
    }

    /// Non-blocking matched receive.
    fn try_recv(&self, from: Option<usize>, tag: u32) -> Option<Envelope> {
        let mut q = self.queue.lock();
        let (due, pos) = Self::first(&q, from, tag)?;
        (due <= Instant::now()).then(|| q.remove(pos).expect("position valid").1)
    }
}

/// Shared world state.
pub struct WorldInner {
    mailboxes: Vec<Arc<Mailbox>>,
    /// Remote-store requests, due-stamped, for the responder thread.
    requests: SyncSender<(Instant, Envelope)>,
    /// Per-rank remote-store shards: key → bytes.
    store: Vec<RwLock<std::collections::HashMap<u64, Vec<u8>>>>,
    /// Messages sent (diagnostics).
    pub messages: AtomicU64,
    /// Bytes sent (diagnostics).
    pub bytes: AtomicU64,
    model: WireModel,
}

impl WorldInner {
    fn send_env(&self, to: usize, env: Envelope) {
        // Relaxed: diagnostic tally, read after the world quiesces.
        self.messages.fetch_add(1, Ordering::Relaxed);
        let size = env.payload.len() + 16; // header estimate, matches parcels
        self.bytes.fetch_add(size as u64, Ordering::Relaxed); // Relaxed: as above
        let due = Instant::now() + self.model.delay_for(size);
        if env.tag == TAG_STORE_REQ {
            // Route the owner rank through the tag field of the diverted
            // envelope: the responder needs (owner, requester).
            let tag = to as u32;
            let _ = self.requests.send((due, Envelope { tag, ..env }));
        } else {
            self.mailboxes[to].deliver(env, due);
        }
    }
}

/// The CSP world: `n` ranks with a shared wire.
pub struct World;

impl World {
    /// Run `f` on `n` ranks (one OS thread each) over `model`, returning
    /// each rank's result ordered by rank id. Also boots a responder
    /// thread serving remote-store requests at zero owner cost.
    pub fn run<T, F>(n: usize, model: WireModel, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        assert!(n >= 1);
        let mailboxes: Vec<Arc<Mailbox>> = (0..n).map(|_| Arc::new(Mailbox::default())).collect();
        let (requests, req_rx) = sync_channel(65536);
        let inner = Arc::new(WorldInner {
            mailboxes,
            requests,
            store: (0..n).map(|_| RwLock::new(Default::default())).collect(),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            model,
        });

        // Responder thread: serves GET requests, paying wire costs on the
        // reply but no rank compute (generous to the baseline). It holds
        // only a Weak reference — a strong one would keep its own request
        // channel alive forever.
        let responder_inner = Arc::downgrade(&inner);
        let responder = std::thread::Builder::new()
            .name("csp-responder".into())
            .spawn(move || responder_loop(req_rx, responder_inner))
            .expect("spawn responder");

        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let inner = inner.clone();
                let f = f.clone();
                std::thread::Builder::new()
                    .name(format!("csp-rank-{id}"))
                    .spawn(move || f(Rank { id, inner }))
                    .expect("spawn rank")
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Preserve the original panic payload for the caller.
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect();
        // Ranks done: close the request channel by dropping inner refs.
        drop(inner);
        let _ = responder.join();
        results
    }
}

fn responder_loop(rx: Receiver<(Instant, Envelope)>, inner: std::sync::Weak<WorldInner>) {
    // Exits when all senders disconnect (the world dropped) or the world
    // is gone. A request is served once due.
    while let Ok((due, env)) = rx.recv() {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let Some(inner) = inner.upgrade() else {
            return;
        };
        let owner = env.tag as usize;
        let requester = env.from;
        let key = u64::from_le_bytes(env.payload[..8].try_into().unwrap());
        let value = inner.store[owner]
            .read()
            .get(&key)
            .cloned()
            .unwrap_or_default();
        inner.send_env(
            requester,
            Envelope {
                from: owner,
                tag: TAG_STORE_REP,
                payload: value,
            },
        );
    }
}

/// One CSP rank: a sequential process with blocking message passing.
pub struct Rank {
    id: usize,
    inner: Arc<WorldInner>,
}

impl Rank {
    /// This rank's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// The wire model in force.
    pub fn model(&self) -> WireModel {
        self.inner.model
    }

    /// Eager (buffered) send of raw bytes.
    pub fn send(&mut self, to: usize, tag: u32, payload: Vec<u8>) {
        assert!(tag < SYS_TAG_BASE, "tag {tag:#x} is reserved");
        self.inner.send_env(
            to,
            Envelope {
                from: self.id,
                tag,
                payload,
            },
        );
    }

    /// Blocking matched receive of raw bytes.
    pub fn recv(&mut self, from: Option<usize>, tag: u32) -> (usize, Vec<u8>) {
        let env = self.inner.mailboxes[self.id].recv(from, tag);
        (env.from, env.payload)
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self, from: Option<usize>, tag: u32) -> Option<(usize, Vec<u8>)> {
        self.inner.mailboxes[self.id]
            .try_recv(from, tag)
            .map(|e| (e.from, e.payload))
    }

    /// Typed send via the wire format.
    pub fn send_t<T: Serialize>(
        &mut self,
        to: usize,
        tag: u32,
        v: &T,
    ) -> Result<(), px_wire::WireError> {
        let bytes = px_wire::to_bytes(v)?;
        self.send(to, tag, bytes);
        Ok(())
    }

    /// Crate-internal typed send allowed to use reserved tags (collectives).
    pub(crate) fn send_sys_t<T: Serialize>(
        &mut self,
        to: usize,
        tag: u32,
        v: &T,
    ) -> Result<(), px_wire::WireError> {
        let bytes = px_wire::to_bytes(v)?;
        self.inner.send_env(
            to,
            Envelope {
                from: self.id,
                tag,
                payload: bytes,
            },
        );
        Ok(())
    }

    /// Typed receive.
    pub fn recv_t<T: DeserializeOwned>(
        &mut self,
        from: Option<usize>,
        tag: u32,
    ) -> Result<(usize, T), px_wire::WireError> {
        let (f, bytes) = self.recv(from, tag);
        Ok((f, px_wire::from_bytes(&bytes)?))
    }

    /// Global barrier: gather-to-root then broadcast, each leg paying wire
    /// latency — the cost §2.2 says LCOs avoid.
    pub fn barrier(&mut self) {
        let n = self.world_size();
        if n == 1 {
            return;
        }
        if self.id == 0 {
            for _ in 1..n {
                self.inner.mailboxes[0].recv(None, TAG_BARRIER);
            }
            for r in 1..n {
                self.inner.send_env(
                    r,
                    Envelope {
                        from: 0,
                        tag: TAG_BARRIER,
                        payload: Vec::new(),
                    },
                );
            }
        } else {
            self.inner.send_env(
                0,
                Envelope {
                    from: self.id,
                    tag: TAG_BARRIER,
                    payload: Vec::new(),
                },
            );
            self.inner.mailboxes[self.id].recv(Some(0), TAG_BARRIER);
        }
    }

    // ---- remote store (RDMA-ish; generous to the baseline) ---------------

    /// Put a value into this rank's store shard (local, free).
    pub fn store_put(&mut self, key: u64, value: Vec<u8>) {
        self.inner.store[self.id].write().insert(key, value);
    }

    /// Blocking remote get: request + reply, each paying the wire. The
    /// owner rank spends no compute (a dedicated responder serves it).
    pub fn store_get(&mut self, owner: usize, key: u64) -> Vec<u8> {
        self.inner.send_env(
            owner,
            Envelope {
                from: self.id,
                tag: TAG_STORE_REQ,
                payload: key.to_le_bytes().to_vec(),
            },
        );
        let env = self.inner.mailboxes[self.id].recv(Some(owner), TAG_STORE_REP);
        env.payload
    }

    /// Sleep helper for tests.
    pub fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_exchange() {
        let out = World::run(4, WireModel::instant(), |mut r| {
            let right = (r.id() + 1) % r.world_size();
            r.send_t(right, 1, &(r.id() as u32)).unwrap();
            let (_, v): (usize, u32) = r.recv_t(None, 1).unwrap();
            v
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = World::run(2, WireModel::instant(), |mut r| {
            if r.id() == 0 {
                r.send_t(1, 7, &7u8).unwrap();
                r.send_t(1, 8, &8u8).unwrap();
                0
            } else {
                // Receive tag 8 first even though 7 was sent first.
                let (_, b): (usize, u8) = r.recv_t(Some(0), 8).unwrap();
                let (_, a): (usize, u8) = r.recv_t(Some(0), 7).unwrap();
                (a + b) as u32
            }
        });
        assert_eq!(out[1], 15);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        World::run(4, WireModel::instant(), move |mut r| {
            c.fetch_add(1, Ordering::SeqCst);
            r.barrier();
            // After the barrier, all pre-barrier increments are visible.
            assert_eq!(c.load(Ordering::SeqCst), 4);
            r.barrier();
        });
    }

    #[test]
    fn barrier_pays_latency() {
        let model = WireModel::with_latency(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        World::run(2, model, |mut r| {
            r.barrier();
        });
        // Arrive + release = at least 2 legs of 5 ms.
        assert!(
            t0.elapsed() >= Duration::from_millis(9),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn remote_store_get() {
        let out = World::run(2, WireModel::instant(), |mut r| {
            if r.id() == 0 {
                r.store_put(42, vec![1, 2, 3]);
                r.barrier();
                0
            } else {
                r.barrier();
                let v = r.store_get(0, 42);
                v.iter().map(|&b| b as u32).sum::<u32>()
            }
        });
        assert_eq!(out[1], 6);
    }

    #[test]
    fn missing_store_key_returns_empty() {
        let out = World::run(2, WireModel::instant(), |mut r| {
            if r.id() == 1 {
                r.store_get(0, 999).len()
            } else {
                0
            }
        });
        assert_eq!(out[1], 0);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, WireModel::instant(), |mut r| {
            r.barrier(); // no-op
            r.id()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        World::run(1, WireModel::instant(), |mut r| {
            r.send(0, TAG_BARRIER, Vec::new());
        });
    }
}
