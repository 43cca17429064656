//! Run queues and the worker sleep protocol.
//!
//! Three pieces, owned by this module so the scheduler's hottest path
//! depends on nothing it cannot read:
//!
//! * [`Local`] / [`Stealer`] — a fixed-capacity lock-free ring per worker
//!   (a bounded Chase–Lev deque with items stored in place). The owner
//!   pushes and pops at the hot end (LIFO) and never waits for anybody;
//!   thieves take one item at a time from the cold end (FIFO). When the
//!   ring is full the owner moves the oldest half to the locality's
//!   injector and carries on. For each of its turns a worker lends its
//!   ring to its thread ([`Local::lend`]): the thread's worker context,
//!   through which every task the turn makes for its own locality —
//!   spawns, same-locality parcels, released waiters — goes on the ring
//!   ([`Local::push_lent`], behind `Locality::spawn_here`), so a task
//!   made and run on one worker touches no lock.
//! * [`Injector`] — the locality's shared FIFO: every thread may push,
//!   every worker (and the balancer) may take. It is a `VecDeque` behind a
//!   mutex with a lock-free length, the same shape other work-stealing
//!   runtimes use for their global queue: the emptiness check a searching
//!   worker makes on every sweep takes no lock, a producer holds the lock
//!   for one `push_back`, and a worker amortises it over a batch.
//! * [`Sleep`] — an eventcount. An idle worker *announces* itself,
//!   *re-checks* every queue and the shutdown flag, and only then
//!   *commits* to an untimed park; a producer publishes its item, then
//!   looks at the eventcount and wakes exactly one announced worker if
//!   there is one. Both sides put a `SeqCst` fence between their write
//!   and their read, so one of them always sees the other: no wake-up is
//!   lost and none needs a timeout to be repaired. Before announcing, at
//!   most one worker per locality spins for [`SPIN`] — yielding the CPU
//!   between looks, and paced so that a sustained exchange runs at a rate
//!   this module sets, not the cache — so an item that arrives within a
//!   hop's service time costs neither side a futex call.
//!
//!   Where the workers drive a poller (the TCP backend's event loop, or
//!   the locality's timer heap in-process), the same word carries who
//!   holds it. One idle worker at a time takes it and parks *in* it: its
//!   park is the poller's blocking wait — `epoll_wait`, or the heap's
//!   timed park, bounded by the earliest deadline — and a notifier that
//!   picks it wakes the poller instead of unparking the thread. The
//!   others park as above, and a free poller is a reason for them to be
//!   awake; whoever gives it back wakes one that parked while it was
//!   held, so it is attended whenever anybody is idle.
//!
//! # How a thief reads a slot without racing the owner
//!
//! Items live in the slots themselves (a task is at most 96 bytes, its
//! parcel boxed; boxing each whole task so a slot could be a single
//! atomic word cost more than the mutexes this module replaced). A slot
//! is therefore plain memory and nobody may read it while the owner
//! writes it. The classic deque lets a thief read first and
//! compare-exchange afterwards, throwing the copy away if it lost —
//! harmless for a word, a data race for a struct. Here a thief
//! *claims* an index first and reads second, and one word, `head`, holds
//! two indices so the owner can tell the difference:
//!
//! ```text
//!   done <= top <= bottom        head = (done, top)
//!   [done, top)     claimed by a thief that is still copying the item out
//!   [top, bottom)   queued
//! ```
//!
//! A thief claims with `(t, t) -> (t, t + 1)` — which also means one thief
//! at a time; a second one sees `done != top` and goes elsewhere — copies
//! the item, and releases with `done := top`. The owner refuses to reuse a
//! slot until `done` has passed it, so it never writes what a thief is
//! reading; it never waits either: a full ring whose thief is mid-copy
//! sends the new item to the injector instead. The owner's own pop is the
//! classic one (lower `bottom`, fence, look at `top`, compare-exchange for
//! the last item).
//!
//! This is the one module of px-core that contains `unsafe`; the rest of
//! the crate stays under `deny(unsafe_code)`.

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

use parking_lot::Mutex;
use std::any::TypeId;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Slots in a worker's local ring.
const LOCAL_QUEUE_CAP: usize = 512;

/// How many injector items one batch steal moves into the local ring at
/// most (besides the one it returns).
const BATCH_LIMIT: usize = 32;

/// How long the one spinning worker of a locality polls the queues before
/// it announces itself and parks. A park plus the unpark that ends it is
/// two futex calls and a cold wake-up, 10 µs and more end to end on the
/// reference box: spinning for about as long as that costs what the park
/// would have cost and saves all of it whenever the next item is closer
/// than that. Much longer and an idle locality burns CPU a busy one could
/// have used.
///
/// It is also the period of those spins' pace: over any stretch, a worker
/// begins to poll at most [`POLLS_PER_SPIN`] times per `SPIN` (see
/// [`Sleep::idle`]) — which is why it cannot be shorter: the partner of a
/// paced worker waits for most of a period and must not park meanwhile.
const SPIN: Duration = Duration::from_micros(20);

/// The polls of one [`SPIN`] are due together, when it begins. Two, so
/// that a paced exchange is three prompt hand-offs and one that waits for
/// the period to end: with one poll per period every other hand-off
/// waited, and the median hand-off was whichever kind a preemption or two
/// had just made the majority — 2 µs over one stretch, 4 µs over the next.
const POLLS_PER_SPIN: u64 = 2;

/// How far a worker's polling schedule may fall behind the clock: the
/// spins a worker did not need, or could not take because something kept
/// it off its CPU, are credit for later ones, up to this much.
const MAX_LAG: Duration = Duration::from_millis(1);

/// Every access to a ring's shared words runs through here: the identity
/// in a normal build, a scheduling point of the interleaving explorer
/// (the test-only `model` module below) in a test build.
#[cfg(not(test))]
#[inline(always)]
fn sched<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
fn sched<R: model::Logged>(f: impl FnOnce() -> R) -> R {
    model::step(f)
}

/// Like [`sched`], for the accesses that return an item: slot reads and
/// injector takes.
#[cfg(not(test))]
#[inline(always)]
fn sched_item<T>(f: impl FnOnce() -> Option<T>) -> Option<T> {
    f()
}

#[cfg(test)]
fn sched_item<T>(f: impl FnOnce() -> Option<T>) -> Option<T> {
    model::step_item(f)
}

/// `head`: the index below which every claimed item has been copied out
/// (`done`, high half) and the next index a thief claims (`top`, low
/// half). Indices are `u32` and wrap; `CAP` is a power of two, so
/// `index % CAP` survives the wrap and differences are taken wrapping.
#[inline]
fn pack(done: u32, top: u32) -> u64 {
    (u64::from(done) << 32) | u64::from(top)
}

#[inline]
fn unpack(head: u64) -> (u32, u32) {
    ((head >> 32) as u32, head as u32)
}

/// `a - b` for wrapping indices that are never half a lap apart.
#[inline]
fn distance(a: u32, b: u32) -> i32 {
    a.wrapping_sub(b) as i32
}

/// The storage a [`Local`] and its [`Stealer`]s share. The two index
/// words sit on different cache lines: the owner writes `bottom` on every
/// push and pop.
struct Ring<T, const CAP: usize> {
    head: Head,
    bottom: Bottom,
    /// Allocated uninitialised and only touched where items land, so an
    /// idle ring costs address space, not memory.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

#[repr(align(64))]
struct Head(AtomicU64);

/// Next index the owner fills. Only the owner writes it.
#[repr(align(64))]
struct Bottom(AtomicU32);

impl Head {
    #[inline]
    fn load(&self) -> (u32, u32) {
        unpack(sched(|| self.0.load(Ordering::Acquire)))
    }

    /// `SeqCst` on success: a claim of the last item must be ordered with
    /// the fences in `pop` and `steal`. Also `Release`s what the caller
    /// did before (a thief's copy, for the owner's next `load`).
    #[inline]
    fn compare_exchange(&self, current: (u32, u32), new: (u32, u32)) -> bool {
        let (current, new) = (pack(current.0, current.1), pack(new.0, new.1));
        sched(|| {
            self.0
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::Acquire)
        })
        .is_ok()
    }
}

impl Bottom {
    /// For the owner, which wrote the value itself.
    #[inline]
    fn own(&self) -> u32 {
        // Relaxed: only the calling thread ever writes `bottom`.
        sched(|| self.0.load(Ordering::Relaxed))
    }

    /// For thieves: `Acquire` pairs with [`Bottom::store`], so the slots
    /// below the value read are visible.
    #[inline]
    fn load(&self) -> u32 {
        sched(|| self.0.load(Ordering::Acquire))
    }

    #[inline]
    fn store(&self, v: u32) {
        sched(|| self.0.store(v, Ordering::Release))
    }
}

impl<T, const CAP: usize> Ring<T, CAP> {
    /// Move the item at `index` out of its slot.
    ///
    /// # Safety
    ///
    /// `index` holds an item (it was pushed and not taken), the caller is
    /// the one thread entitled to take it, and the push happened-before.
    #[inline]
    // SAFETY: (contract above; upheld at the three call sites)
    unsafe fn take(&self, index: u32) -> T {
        let slot = &self.slots[index as usize % CAP];
        // SAFETY: per the contract the slot is initialised, nobody writes
        // it now (the owner reuses it only after `done` passed `index`)
        // and nobody else will read it out.
        sched_item(|| Some(unsafe { (*slot.get()).assume_init_read() }))
            .expect("a slot read yields its item")
    }

    /// Put `item` into the slot of `index`.
    ///
    /// # Safety
    ///
    /// Only the owner calls this, for `index == bottom`, after checking
    /// `index - done < CAP`.
    #[inline]
    // SAFETY: (contract above; upheld by `try_push`, the one caller)
    unsafe fn put(&self, index: u32, item: T) {
        let slot = &self.slots[index as usize % CAP];
        sched(|| {
            // SAFETY: the slot's previous tenant had index `index - CAP`,
            // which is below `done`: it has been copied out, and the
            // `Acquire` load that showed us `done` ordered that copy
            // before this write. Thieves never touch indices at or above
            // `bottom`.
            unsafe { (*slot.get()).write(item) };
        })
    }
}

// SAFETY: the ring hands each `T` from the thread that pushed it to the
// one thread that takes it and never shares a `&T`; the index protocol
// (module docs) keeps slot accesses of different threads ordered.
unsafe impl<T: Send, const CAP: usize> Send for Ring<T, CAP> {}
// SAFETY: as above — `&Ring` only exposes that protocol.
unsafe impl<T: Send, const CAP: usize> Sync for Ring<T, CAP> {}

impl<T, const CAP: usize> Drop for Ring<T, CAP> {
    fn drop(&mut self) {
        let (_, top) = unpack(*self.head.0.get_mut());
        let bottom = *self.bottom.0.get_mut();
        for offset in 0..distance(bottom, top).max(0) as u32 {
            let slot = &mut self.slots[top.wrapping_add(offset) as usize % CAP];
            // SAFETY: `&mut self` means no handle is left, so no claim is
            // open and indices `top..bottom` hold items nobody took.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

/// The owner's end of a worker ring.
pub(crate) struct Local<T, const CAP: usize = LOCAL_QUEUE_CAP> {
    ring: Arc<Ring<T, CAP>>,
    /// One owner: the handle moves to its worker thread (`Send`) and is
    /// never shared (`!Sync`).
    _owner: PhantomData<Cell<()>>,
}

/// The calling thread's worker context: the ring lent to it for a turn
/// ([`Local::lend`]), type-erased, and the tag its worker gave the turn.
/// Empty outside a turn. One cell per field, so a read of the tag — every
/// counter bump — reads nothing else.
struct Lent {
    /// The worker's tag: an owner key (`Locality`'s address) and a row.
    tag: Cell<(usize, usize)>,
    /// The lent `Local`'s address, and its type, which `push_lent` checks
    /// (`()`'s when none is lent).
    ring: Cell<(*const (), TypeId)>,
}

thread_local! {
    static LENT: Lent = const {
        Lent {
            tag: Cell::new((0, 0)),
            ring: Cell::new((std::ptr::null(), TypeId::of::<()>())),
        }
    };
}

/// The tag of the turn the calling thread is in ([`Local::lend`]);
/// `(0, 0)` outside one.
#[inline]
pub(crate) fn lent_tag() -> (usize, usize) {
    LENT.with(|l| l.tag.get())
}

/// A thief's handle onto another worker's ring.
pub(crate) struct Stealer<T, const CAP: usize = LOCAL_QUEUE_CAP> {
    ring: Arc<Ring<T, CAP>>,
}

impl<T: Send, const CAP: usize> Local<T, CAP> {
    /// New empty ring.
    pub(crate) fn new() -> Self {
        assert!(
            CAP.is_power_of_two() && (2..=1 << 30).contains(&CAP),
            "ring capacity must be a power of two so indices can wrap"
        );
        Local {
            ring: Arc::new(Ring {
                head: Head(AtomicU64::new(0)),
                bottom: Bottom(AtomicU32::new(0)),
                slots: (0..CAP)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
            }),
            _owner: PhantomData,
        }
    }

    /// A handle thieves use.
    pub(crate) fn stealer(&self) -> Stealer<T, CAP> {
        Stealer {
            ring: self.ring.clone(),
        }
    }

    /// Push at the hot end. A full ring first moves its oldest half to
    /// `overflow` (in order), so the newest work stays local — unless a
    /// thief is mid-copy, in which case the new item goes to `overflow`
    /// itself rather than wait for the thief.
    pub(crate) fn push(&self, mut item: T, overflow: &Injector<T>) {
        let ring = &*self.ring;
        loop {
            item = match self.try_push(item) {
                Ok(()) => return,
                Err(back) => back,
            };
            let (done, top) = ring.head.load();
            if distance(ring.bottom.own(), done) < CAP as i32 {
                // A thief released since the failed push: room again.
                continue;
            }
            if done != top {
                return overflow.push(item);
            }
            let n = (CAP / 2) as u32;
            let spilled = top.wrapping_add(n);
            if ring.head.compare_exchange((top, top), (spilled, spilled)) {
                // SAFETY: `done == top` and `bottom - top == CAP`, so
                // indices `top..top + n` were queued; the exchange took
                // them away from the thieves in one step, and the owner —
                // this thread — pushes nothing until they are out: each
                // is read here and only here.
                overflow.push_batch(
                    (0..n).map(|offset| unsafe { ring.take(top.wrapping_add(offset)) }),
                );
            }
            // Else a thief claimed meanwhile: look again.
        }
    }

    /// Push at the hot end, or hand the item back when the ring is full.
    fn try_push(&self, item: T) -> Result<(), T> {
        let ring = &*self.ring;
        let b = ring.bottom.own();
        let (done, _) = ring.head.load();
        if distance(b, done) >= CAP as i32 {
            return Err(item);
        }
        // SAFETY: owner thread, `b == bottom`, `b - done < CAP`.
        unsafe { ring.put(b, item) };
        ring.bottom.store(b.wrapping_add(1));
        Ok(())
    }

    /// Pop at the hot end: the most recently pushed item still here.
    pub(crate) fn pop(&self) -> Option<T> {
        let ring = &*self.ring;
        let b = ring.bottom.own();
        // `top` only grows, so a stale value can call an emptied ring
        // non-empty (handled below) but never the reverse.
        if b == ring.head.load().1 {
            return None;
        }
        let b = b.wrapping_sub(1);
        // Claim index `b`, then look at `top`: the fence orders the claim
        // before the look for every thief that fences between its own
        // `top` and `bottom` reads, so the owner and a thief can both go
        // for the same index only when it is the last one — and then the
        // compare-exchange on `head` picks the winner.
        ring.bottom.store(b);
        fence(Ordering::SeqCst);
        let (done, top) = ring.head.load();
        if distance(top, b) > 0 {
            // Thieves took everything while we were claiming.
            ring.bottom.store(b.wrapping_add(1));
            return None;
        }
        if top == b {
            // The last item. Taking it moves `top`; `done` follows only
            // if no thief is mid-copy below (its release will catch up).
            let next = top.wrapping_add(1);
            let mut head = (done, top);
            let won = loop {
                let new_done = if head.0 == top { next } else { head.0 };
                if ring.head.compare_exchange(head, (new_done, next)) {
                    break true;
                }
                head = ring.head.load();
                if head.1 != top {
                    // A thief claimed it. (If only `done` moved — the
                    // thief below released — the item is still there.)
                    break false;
                }
            };
            ring.bottom.store(next);
            if !won {
                return None;
            }
        }
        // SAFETY: index `b` was pushed by this thread and not taken
        // (`top <= b < bottom`), and it is ours alone: with `top < b` no
        // thief reaches it before seeing the lowered `bottom`, with
        // `top == b` we won the exchange a thief of `b` must also win.
        Some(unsafe { ring.take(b) })
    }

    /// Number of queued items (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        distance(self.ring.bottom.own(), self.ring.head.load().1).max(0) as usize
    }
}

impl<T: Send + 'static, const CAP: usize> Local<T, CAP> {
    /// Lend this ring to the calling thread under `tag` while `f` runs —
    /// its owner's turn: meanwhile [`Local::push_lent`] for `tag.0` pushes
    /// here and [`lent_tag`] reads `tag`. The context `f` replaced is back
    /// when it returns or unwinds.
    pub(crate) fn lend<R>(&self, tag: (usize, usize), f: impl FnOnce() -> R) -> R {
        struct Restore((usize, usize), (*const (), TypeId));
        impl Drop for Restore {
            fn drop(&mut self) {
                LENT.with(|l| {
                    l.tag.set(self.0);
                    l.ring.set(self.1);
                });
            }
        }
        let ring = ((self as *const Self).cast(), TypeId::of::<Self>());
        let _outer = LENT.with(|l| Restore(l.tag.replace(tag), l.ring.replace(ring)));
        f()
    }

    /// Push `item` at the hot end of the ring lent to the calling thread
    /// ([`Local::lend`]) when that lend's owner key is `owner`; hand the
    /// item back otherwise.
    #[inline]
    pub(crate) fn push_lent(owner: usize, item: T, overflow: &Injector<T>) -> Result<(), T> {
        let (tag, (ring, ty)) = LENT.with(|l| (l.tag.get(), l.ring.get()));
        if tag.0 != owner || ty != TypeId::of::<Self>() {
            return Err(item);
        }
        // SAFETY: `lend` stored the address of a `Self` (the type id says
        // which), borrowed for as long as the slot holds it: the slot is
        // this thread's, and the frame that borrowed the ring restores it
        // before the borrow ends, unwinding too. The reference lives for
        // this push only, on the thread the ring was lent to, and a push
        // runs no code that could reach the ring again.
        let ring = unsafe { &*ring.cast::<Self>() };
        ring.push(item, overflow);
        Ok(())
    }
}

impl<T: Send, const CAP: usize> Stealer<T, CAP> {
    /// Take the oldest item, if any. `None` also when another thief is
    /// mid-copy on this ring: the caller has other queues to look at.
    pub(crate) fn steal(&self) -> Option<T> {
        let ring = &*self.ring;
        loop {
            let (done, top) = ring.head.load();
            if done != top {
                return None;
            }
            // Pairs with the fence in `Local::pop`: if the owner's claim
            // of the last index is not visible below, our move of `top`
            // is visible to the owner.
            fence(Ordering::SeqCst);
            if distance(ring.bottom.load(), top) <= 0 {
                return None;
            }
            let next = top.wrapping_add(1);
            if !ring.head.compare_exchange((top, top), (top, next)) {
                // Another thief or the owner took index `top`: somebody
                // made progress, look again.
                continue;
            }
            // SAFETY: `top < bottom` as read after `head`, so the index
            // was pushed (and `Bottom::load` acquired the push); the
            // exchange made it ours; and `done == top` keeps the owner
            // from reusing the slot until the release below.
            let item = unsafe { ring.take(top) };
            // Release: `done := top`. Only the owner can have moved `top`
            // meanwhile (other thieves see `done != top`), by taking the
            // last item, and it copies before it pushes again.
            let mut current = (top, next);
            while !ring.head.compare_exchange(current, (current.1, current.1)) {
                current = ring.head.load();
            }
            return Some(item);
        }
    }

    /// Items queued right now, as a thief sees them: a snapshot, which a
    /// push, pop or steal may change before the caller acts on it.
    pub(crate) fn len(&self) -> usize {
        let (_, top) = self.ring.head.load();
        distance(self.ring.bottom.load(), top).max(0) as usize
    }

    /// True when there is nothing to steal right now.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A locality's shared FIFO run queue. It owns its cache line: every
/// searching worker polls `len`, so an injector that is never pushed to
/// (the control lane of most runs) must not share a line with one that
/// is, nor with the store's lock word.
#[repr(align(64))]
pub(crate) struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    /// `queue.len()`, stored under the lock and read without it.
    len: AtomicUsize,
}

impl<T: Send> Injector<T> {
    /// New empty injector.
    pub(crate) fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Append one item.
    pub(crate) fn push(&self, item: T) {
        self.push_batch(std::iter::once(item));
    }

    /// Append items in order under one lock acquisition.
    fn push_batch(&self, items: impl Iterator<Item = T>) {
        sched(|| {
            let mut q = self.queue.lock();
            q.extend(items);
            self.len.store(q.len(), Ordering::Release);
        })
    }

    /// Take the oldest item.
    pub(crate) fn steal(&self) -> Option<T> {
        sched_item(|| {
            if self.is_empty() {
                return None;
            }
            let mut q = self.queue.lock();
            let item = q.pop_front();
            self.len.store(q.len(), Ordering::Release);
            item
        })
    }

    /// Take the oldest item and move up to half of the rest (at most
    /// [`BATCH_LIMIT`], at most what fits) into `dest`, so one lock
    /// acquisition feeds the caller's next pops.
    pub(crate) fn steal_batch_and_pop<const CAP: usize>(&self, dest: &Local<T, CAP>) -> Option<T> {
        sched_item(|| {
            if self.is_empty() {
                return None;
            }
            let mut q = self.queue.lock();
            let first = q.pop_front();
            for _ in 0..(q.len() / 2).min(BATCH_LIMIT) {
                let Some(item) = q.pop_front() else { break };
                if let Err(back) = dest.try_push(item) {
                    q.push_front(back);
                    break;
                }
            }
            self.len.store(q.len(), Ordering::Release);
            first
        })
    }

    /// True when the queue has no items.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued items.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Set in [`Sleep::state`] while one worker spins.
const SPINNING: u32 = 1;
/// Set in [`Sleep::state`] while a thread holds the locality's poller.
const POLLER: u32 = 2;
/// One announced worker in [`Sleep::state`].
const SLEEPER: u32 = 4;

/// A worker is running or searching.
const AWAKE: u32 = 0;
/// A worker announced that it is about to park (or has parked).
const SLEEPING: u32 = 1;
/// A notifier picked this worker; it must not park (or must wake).
const NOTIFIED: u32 = 2;
/// A worker announced that it is about to block in the poller (or has).
const POLLING: u32 = 3;

struct Sleeper {
    state: AtomicU32,
    /// Set by the worker itself before its first announce.
    thread: OnceLock<Thread>,
    /// Time this worker has spent parked, in a form a reader can bring up
    /// to date while the worker is still parked (a starved worker never
    /// wakes to report it): awake, `total << 1`; parked,
    /// `(total - parked_at) << 1 | 1`, so that adding `now` gives the
    /// total including the park in progress. Nanoseconds since
    /// [`Sleep::epoch`], modulo 2^63. Written by the worker only.
    parked_ns: AtomicU64,
    /// When this worker's latest spin was due to start polling, on the
    /// [`Sleep::epoch`] clock. Read and written by the worker only.
    spin_due_ns: AtomicU64,
}

/// What [`Sleep::idle`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Idle {
    /// `ready` turned true while spinning or at the re-check: no park.
    Ready,
    /// The worker parked and a notifier woke it.
    Parked,
}

/// The locality's poller, held ([`Sleep::try_poll`]). Dropping it gives
/// the poller back: a worker that announced while it was held parked
/// because it could not take it, and one is woken to take it over.
pub(crate) struct PollerHeld<'a>(&'a Sleep);

impl Drop for PollerHeld<'_> {
    fn drop(&mut self) {
        let sleep = self.0;
        if sleep.state.fetch_and(!POLLER, Ordering::SeqCst) >= SLEEPER {
            sleep.wake(1);
        }
    }
}

/// The eventcount a locality's workers sleep on.
pub(crate) struct Sleep {
    /// `announced workers * SLEEPER | POLLER | SPINNING`: the one word a
    /// producer reads to decide whether anybody needs waking.
    state: AtomicU32,
    workers: Box<[Sleeper]>,
    /// Spinning only pays when the producer can run at the same time.
    spin: bool,
    /// Zero of the `parked_ns` clocks.
    epoch: Instant,
    /// How a notifier ends a park in the poller: set once when this
    /// locality's workers drive one ([`Sleep::drive_poller`]).
    poll_wake: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl Sleep {
    /// Sleep control for `workers` workers (none for a locality whose
    /// workers live in another OS process).
    pub(crate) fn new(workers: usize) -> Sleep {
        Sleep {
            state: AtomicU32::new(0),
            workers: (0..workers)
                .map(|_| Sleeper {
                    state: AtomicU32::new(AWAKE),
                    thread: OnceLock::new(),
                    parked_ns: AtomicU64::new(0),
                    spin_due_ns: AtomicU64::new(0),
                })
                .collect(),
            spin: std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            epoch: Instant::now(),
            poll_wake: OnceLock::new(),
        }
    }

    /// Make this locality's idle workers drive a poller: one at a time
    /// holds it ([`Sleep::try_poll`]) and parks in its blocking wait
    /// ([`Sleep::idle_polling`]), which `wake` ends. Set once, before the
    /// workers run.
    pub(crate) fn drive_poller(&self, wake: impl Fn() + Send + Sync + 'static) {
        let _ = self.poll_wake.set(Box::new(wake));
    }

    /// True when this locality's workers drive a poller.
    pub(crate) fn polls(&self) -> bool {
        self.poll_wake.get().is_some()
    }

    /// Take the poller, held until the guard drops; `None` when another
    /// thread holds it. The fence orders the claim before the holder's
    /// look at what it must carry: a producer that published, fenced and
    /// then found nobody holding the poller is seen by that look
    /// ([`Sleep::kick`]).
    pub(crate) fn try_poll(&self) -> Option<PollerHeld<'_>> {
        let took = self.state.fetch_or(POLLER, Ordering::SeqCst) & POLLER == 0;
        fence(Ordering::SeqCst);
        took.then(|| PollerHeld(self))
    }

    /// Wake the poller's holder, if some thread holds it. Called after
    /// publishing what the holder must carry — a port record, a heap item:
    /// with nobody holding it, whoever takes it next looks first. The
    /// waker is sticky (an eventfd, the heap's bell): a holder not yet in
    /// its wait returns from it at once.
    pub(crate) fn kick(&self) {
        fence(Ordering::SeqCst);
        if self.state.load(Ordering::SeqCst) & POLLER != 0 {
            if let Some(wake) = self.poll_wake.get() {
                wake();
            }
        }
    }

    /// True when this locality's workers drive a poller and nobody holds
    /// it: a reason for an idle worker to be awake.
    pub(crate) fn poller_free(&self) -> bool {
        self.polls() && self.state.load(Ordering::SeqCst) & POLLER == 0
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Workers that have announced and not been woken: parked, or about
    /// to be (tests).
    #[cfg(test)]
    pub(crate) fn sleeping(&self) -> u64 {
        u64::from(self.state.load(Ordering::SeqCst) / SLEEPER)
    }

    /// Total time this locality's workers have spent parked, parks in
    /// progress included. Never decreases.
    pub(crate) fn parked_ns(&self) -> u64 {
        let one = |w: &Sleeper| loop {
            let clock = w.parked_ns.load(Ordering::Acquire);
            if clock & 1 == 0 {
                return clock >> 1;
            }
            let now = self.now_ns();
            // Still the same park: `now` lies inside it. (Otherwise the
            // worker woke, or woke and parked again, while we looked.)
            if w.parked_ns.load(Ordering::Acquire) == clock {
                return (clock >> 1).wrapping_add(now) & (u64::MAX >> 1);
            }
        };
        self.workers.iter().map(one).sum()
    }

    /// Called by worker `w` when it found no work. `ready` says whether
    /// there is a reason to be awake (any queue non-empty, or shutdown);
    /// `on_park` runs just before the thread blocks. Where the workers
    /// drive a poller, a free one is a reason too: this worker could not
    /// take it, and comes back to.
    ///
    /// Spins for at most [`SPIN`] if no other worker here is spinning,
    /// then announces, re-checks `ready`, and parks — untimed — until a
    /// notifier picks this worker.
    ///
    /// The spin yields the CPU between looks: whatever else is runnable
    /// here runs, and on a small box that may be the very producer this
    /// worker waits for.
    ///
    /// And it is paced. A worker's spins are due [`POLLS_PER_SPIN`] per
    /// [`SPIN`], all at its start, and a spin looks at nothing until it is
    /// due. A worker that has been busy or asleep is behind that schedule
    /// (by [`MAX_LAG`] at most) and polls at once, spin after spin, until
    /// it has caught up; the one that waits is a worker that keeps running
    /// dry faster than that — two workers handing single items back and
    /// forth. Each of them then answers `POLLS_PER_SPIN` items as they
    /// come and looks for the next one when the period ends, so the
    /// exchange has these constants for its rate, not a sum of cache-line
    /// transfers that moves by several percent with thread placement and
    /// the neighbours' load; and what it loses to a timer tick or a
    /// preemption it makes up at memory speed. The price is latency: one
    /// hand-off in four of such an exchange waits out the period.
    pub(crate) fn idle(
        &self,
        w: usize,
        mut ready: impl FnMut() -> bool,
        on_park: impl FnOnce(),
    ) -> Idle {
        let mut ready = || ready() || self.poller_free();
        if self.spun(w, &mut ready) {
            return Idle::Ready;
        }
        self.park(w, SLEEPING, ready, on_park, |me| {
            // A stale unpark token or a spurious return ends `park` early;
            // only the notifier's state change ends the sleep.
            while me.state.load(Ordering::SeqCst) != NOTIFIED {
                std::thread::park();
            }
            me.state.store(AWAKE, Ordering::SeqCst);
        })
    }

    /// The spin of [`Sleep::idle`]: true when `ready` turned true. Only
    /// one worker of the locality spins at a time.
    fn spun(&self, w: usize, ready: &mut impl FnMut() -> bool) -> bool {
        let me = &self.workers[w];
        if !self.spin || self.state.fetch_or(SPINNING, Ordering::SeqCst) & SPINNING != 0 {
            return false;
        }
        let spin = SPIN.as_nanos() as u64;
        let now = self.now_ns();
        // Relaxed: only this thread touches its schedule.
        let slot = (me.spin_due_ns.load(Ordering::Relaxed) + spin / POLLS_PER_SPIN)
            .max(now.saturating_sub(MAX_LAG.as_nanos() as u64));
        // Relaxed: as above.
        me.spin_due_ns.store(slot, Ordering::Relaxed);
        // The slots of one `SPIN` are all due when it begins.
        let due = slot - slot % spin;
        let deadline = due.max(now) + spin;
        let found = loop {
            let now = self.now_ns();
            if now >= due && ready() {
                break true;
            }
            if now >= deadline {
                break false;
            }
            std::thread::yield_now();
        };
        self.state.fetch_and(!SPINNING, Ordering::SeqCst);
        found
    }

    /// [`Sleep::idle`] for the worker that holds the poller. It spins
    /// first only with `spin`: where `ready` sees all it waits for (the
    /// heap's due items in-process), not over TCP, where it would not see
    /// the sockets. Its park is `wait`, the
    /// poller's blocking wait, which a notifier ends through the waker
    /// [`Sleep::drive_poller`] installed. The worker is awake again once
    /// `wait` returns, whatever ended it.
    pub(crate) fn idle_polling(
        &self,
        w: usize,
        spin: bool,
        mut ready: impl FnMut() -> bool,
        on_park: impl FnOnce(),
        wait: impl FnOnce(),
    ) -> Idle {
        if spin && self.spun(w, &mut ready) {
            return Idle::Ready;
        }
        self.park(w, POLLING, ready, on_park, |me| {
            wait();
            self.unannounce(me, POLLING);
        })
    }

    /// Announce worker `w` as `how` (parking on its thread, or in the
    /// poller), re-check `ready`, and unless it turned true, run `block`
    /// as the park: it returns with the worker awake and out of the count.
    fn park(
        &self,
        w: usize,
        how: u32,
        mut ready: impl FnMut() -> bool,
        on_park: impl FnOnce(),
        block: impl FnOnce(&Sleeper),
    ) -> Idle {
        let me = &self.workers[w];
        me.thread.get_or_init(std::thread::current);
        // Announce, then re-check. A producer publishes, fences, then
        // reads `state`; we write `state`, fence, then read the queues.
        // Whichever fence comes second sees the other side's write: the
        // producer finds this worker, or the re-check finds its item.
        me.state.store(how, Ordering::SeqCst);
        self.state.fetch_add(SLEEPER, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if ready() {
            self.unannounce(me, how);
            return Idle::Ready;
        }
        on_park();
        // Relaxed: only this thread writes its clock.
        let total = me.parked_ns.load(Ordering::Relaxed) >> 1;
        let parked_at = self.now_ns();
        let running = (total.wrapping_sub(parked_at) << 1) | 1;
        me.parked_ns.store(running, Ordering::Release);
        block(me);
        let total = total + (self.now_ns() - parked_at);
        me.parked_ns.store(total << 1, Ordering::Release);
        Idle::Parked
    }

    /// Take an announced worker out of the count, awake.
    fn unannounce(&self, me: &Sleeper, how: u32) {
        if me
            .state
            .compare_exchange(how, AWAKE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.state.fetch_sub(SLEEPER, Ordering::SeqCst);
        } else {
            // A notifier picked us meanwhile (and took us out of the
            // count). We are awake, which is all it wanted.
            me.state.store(AWAKE, Ordering::SeqCst);
        }
    }

    /// Called after publishing an item: wake one announced worker, unless
    /// nobody announced or a spinning worker is about to find the item.
    #[inline]
    pub(crate) fn notify_one(&self) {
        // Pairs with the fence in `idle`: orders the caller's publication
        // before this look at the eventcount.
        fence(Ordering::SeqCst);
        let s = self.state.load(Ordering::SeqCst);
        if s >= SLEEPER && s & SPINNING == 0 {
            self.wake(1);
        }
    }

    /// Wake every announced worker (shutdown: set the flag first).
    pub(crate) fn notify_all(&self) {
        fence(Ordering::SeqCst);
        self.wake(usize::MAX);
    }

    #[cold]
    fn wake(&self, mut n: usize) {
        // Workers parked on their threads first: the one blocked in the
        // poller keeps polling unless nobody else is left to wake.
        let kinds: &[u32] = if self.polls() {
            &[SLEEPING, POLLING]
        } else {
            &[SLEEPING]
        };
        for &kind in kinds {
            for worker in self.workers.iter() {
                if n == 0 {
                    return;
                }
                if worker
                    .state
                    .compare_exchange(kind, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.state.fetch_sub(SLEEPER, Ordering::SeqCst);
                    if kind == POLLING {
                        (self.poll_wake.get().expect("a poller has a waker"))();
                    } else {
                        worker
                            .thread
                            .get()
                            .expect("a worker registers its thread before it announces")
                            .unpark();
                    }
                    n -= 1;
                }
            }
        }
    }
}

/// The interleaving explorer's hook: runs the real ring and injector
/// code one shared-memory access at a time, on one OS thread.
///
/// A modelled thread's current operation is advanced by *re-running* it
/// under [`advance`]: accesses already made are answered from the
/// thread's log (writes are skipped), the next one executes for real and
/// is logged, and the one after that unwinds out of the operation. The
/// operation has finished when it returns instead. Items are plain
/// integers there (nothing to own while unwinding), slot reads and writes
/// are accesses like the index words — so a slot that can be written
/// while it is being read shows up as a wrong item — and a `SeqCst` fence
/// is a no-op: the explorer covers every interleaving of a sequentially
/// consistent machine, not the weaker orders real hardware adds; those
/// are argued in the comments at each access.
#[cfg(test)]
mod model {
    use std::cell::RefCell;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// A value an index-word access returns, as two words.
    pub(super) trait Logged {
        fn pack(self) -> [u64; 2];
        fn unpack(words: [u64; 2]) -> Self;
    }

    impl Logged for () {
        fn pack(self) -> [u64; 2] {
            [0, 0]
        }
        fn unpack(_: [u64; 2]) {}
    }

    impl Logged for u64 {
        fn pack(self) -> [u64; 2] {
            [self, 0]
        }
        fn unpack(w: [u64; 2]) -> u64 {
            w[0]
        }
    }

    impl Logged for u32 {
        fn pack(self) -> [u64; 2] {
            [u64::from(self), 0]
        }
        fn unpack(w: [u64; 2]) -> u32 {
            w[0] as u32
        }
    }

    impl Logged for Result<u64, u64> {
        fn pack(self) -> [u64; 2] {
            match self {
                Ok(v) => [v, 1],
                Err(v) => [v, 0],
            }
        }
        fn unpack(w: [u64; 2]) -> Result<u64, u64> {
            if w[1] == 1 {
                Ok(w[0])
            } else {
                Err(w[0])
            }
        }
    }

    /// An item as the explorer logs it. Only the explorer's own item type
    /// (`u64`) ever reaches this: outside a run every access passes
    /// straight through, whatever the item type.
    struct ItemWord<T>(Option<T>);

    impl<T> Logged for ItemWord<T> {
        fn pack(self) -> [u64; 2] {
            assert!(
                size_of::<T>() == 8 && !std::mem::needs_drop::<T>(),
                "the explorer runs on u64 items"
            );
            match self.0 {
                // SAFETY: `T` is 8 bytes without drop glue (checked just
                // above); reading them as a `u64` is a plain copy.
                Some(item) => [unsafe { std::mem::transmute_copy(&item) }, 1],
                None => [0, 0],
            }
        }
        fn unpack(w: [u64; 2]) -> Self {
            // SAFETY: the word was packed from a `T` above, and `T` owns
            // nothing, so making a second copy of it is harmless.
            ItemWord((w[1] == 1).then(|| unsafe { std::mem::transmute_copy(&w[0]) }))
        }
    }

    struct Run {
        log: Vec<[u64; 2]>,
        cursor: usize,
        executed: bool,
        in_step: bool,
    }

    thread_local! {
        static RUN: RefCell<Option<Run>> = const { RefCell::new(None) };
    }

    struct Preempted;

    enum Act {
        Pass,
        Replay([u64; 2]),
        Execute,
        Preempt,
    }

    pub(super) fn step<R: Logged>(f: impl FnOnce() -> R) -> R {
        let act = RUN.with(|run| match run.borrow_mut().as_mut() {
            None => Act::Pass,
            Some(run) if run.in_step => Act::Pass,
            Some(run) if run.cursor < run.log.len() => {
                run.cursor += 1;
                Act::Replay(run.log[run.cursor - 1])
            }
            Some(run) if run.executed => Act::Preempt,
            Some(run) => {
                run.in_step = true;
                Act::Execute
            }
        });
        match act {
            Act::Pass => f(),
            Act::Replay(words) => R::unpack(words),
            Act::Preempt => resume_unwind(Box::new(Preempted)),
            Act::Execute => {
                let words = f().pack();
                RUN.with(|run| {
                    let mut run = run.borrow_mut();
                    let run = run.as_mut().expect("a run is installed while stepping");
                    run.log.push(words);
                    run.cursor += 1;
                    run.executed = true;
                    run.in_step = false;
                });
                R::unpack(words)
            }
        }
    }

    pub(super) fn step_item<T>(f: impl FnOnce() -> Option<T>) -> Option<T> {
        if RUN.with(|run| run.borrow().is_none()) {
            return f();
        }
        step(|| ItemWord(f())).0
    }

    /// Advance `op` by one scheduling point; `log` carries the points it
    /// has already passed. `Some(result)` once the operation returns.
    pub(super) fn advance<R>(log: &mut Vec<[u64; 2]>, op: impl FnOnce() -> R) -> Option<R> {
        RUN.with(|run| {
            *run.borrow_mut() = Some(Run {
                log: std::mem::take(log),
                cursor: 0,
                executed: false,
                in_step: false,
            })
        });
        let out = catch_unwind(AssertUnwindSafe(op));
        let run = RUN
            .with(|run| run.borrow_mut().take())
            .expect("run still installed");
        *log = run.log;
        match out {
            Ok(result) => Some(result),
            Err(payload) if payload.is::<Preempted>() => None,
            Err(payload) => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    type Ring4 = Local<u32, 4>;

    #[test]
    fn owner_is_lifo() {
        let inj = Injector::new();
        let w = Ring4::new();
        w.push(1, &inj);
        w.push(2, &inj);
        assert_eq!(w.pop().as_ref(), Some(&2));
        assert_eq!(w.pop().as_ref(), Some(&1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn stealer_takes_cold_end() {
        let inj = Injector::new();
        let w = Ring4::new();
        let s = w.stealer();
        assert!(s.is_empty());
        w.push(1, &inj);
        w.push(2, &inj);
        assert!(!s.is_empty());
        assert_eq!(s.steal().as_ref(), Some(&1));
        assert_eq!(w.pop().as_ref(), Some(&2));
        assert_eq!(s.steal(), None);
        assert!(s.is_empty());
    }

    /// A lent ring takes the pushes made for its owner key while the lend
    /// lasts, and only those; the context before it is back afterwards,
    /// after a nested lend and after a panic alike.
    #[test]
    fn a_lent_ring_takes_its_owners_pushes_for_the_turn_only() {
        let inj = Injector::new();
        let (w, v) = (Ring4::new(), Ring4::new());
        assert_eq!(Ring4::push_lent(7, 0, &inj), Err(0), "nothing lent");
        w.lend((7, 1), || {
            assert_eq!(lent_tag(), (7, 1));
            assert_eq!(Ring4::push_lent(7, 1, &inj), Ok(()));
            assert_eq!(Ring4::push_lent(8, 2, &inj), Err(2), "another owner");
            assert_eq!(Local::<u64, 8>::push_lent(7, 3, &Injector::new()), Err(3));
            v.lend((8, 2), || assert_eq!(Ring4::push_lent(8, 4, &inj), Ok(())));
            assert_eq!(lent_tag(), (7, 1), "the inner lend gave it back");
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                v.lend((8, 2), || panic!("a turn that unwinds"))
            }));
            assert!(unwound.is_err());
            assert_eq!(Ring4::push_lent(7, 5, &inj), Ok(()));
        });
        assert_eq!((lent_tag(), Ring4::push_lent(7, 6, &inj)), ((0, 0), Err(6)));
        assert_eq!((w.pop(), w.pop(), w.pop()), (Some(5), Some(1), None));
        assert_eq!((v.pop(), v.pop()), (Some(4), None));
        assert!(inj.is_empty());
    }

    #[test]
    fn full_ring_spills_oldest_half_in_order() {
        let inj = Injector::new();
        let w = Ring4::new();
        for i in 0..5 {
            w.push(i, &inj);
        }
        // 0 and 1 (the oldest half of a full ring of 4) moved over, in
        // order; 2, 3 and the new 4 stayed local.
        assert_eq!(inj.len(), 2);
        assert_eq!(inj.steal().as_ref(), Some(&0));
        assert_eq!(inj.steal().as_ref(), Some(&1));
        assert!(inj.is_empty());
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().as_ref(), Some(&4));
    }

    #[test]
    fn injector_batch_steal() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let w = Local::<i32>::new();
        assert_eq!(inj.steal_batch_and_pop(&w).as_ref(), Some(&0));
        // Half of the remaining nine tasks moved over with the pop.
        assert_eq!(w.len(), 4);
        assert_eq!(inj.len(), 5);
    }

    #[test]
    fn batch_steal_stops_at_a_full_ring() {
        let inj = Injector::new();
        for i in 0..20 {
            inj.push(i);
        }
        let w = Ring4::new();
        w.push(100, &inj);
        assert_eq!(inj.steal_batch_and_pop(&w).as_ref(), Some(&0));
        // Three free slots took 1, 2, 3; the item that did not fit went
        // back to the front.
        assert_eq!(w.len(), 4);
        assert_eq!(inj.len(), 16);
        assert_eq!(inj.steal().as_ref(), Some(&4));
    }

    #[test]
    fn concurrent_stealing_loses_nothing() {
        let inj = Arc::new(Injector::new());
        for i in 0..1000 {
            inj.push(i);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let inj = inj.clone();
            handles.push(std::thread::spawn(move || {
                let w = Local::<i32>::new();
                let mut got = Vec::new();
                while let Some(t) = inj.steal_batch_and_pop(&w) {
                    got.push(t);
                    while let Some(t) = w.pop() {
                        got.push(t);
                    }
                }
                got
            }));
        }
        let mut all: Vec<i32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    /// Real threads on the real ring: one owner pushing (through a small
    /// ring, so the spill path runs constantly) and popping, three
    /// thieves stealing from the ring and the injector. Every item comes
    /// out exactly once.
    #[test]
    fn ring_under_real_threads_delivers_each_item_once() {
        const N: u32 = 200_000;
        let inj = Arc::new(Injector::<u32>::new());
        let w = Local::<u32, 8>::new();
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let (s, inj, done) = (w.stealer(), inj.clone(), done.clone());
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        // Read the flag before the sweep: an empty sweep
                        // after the owner finished means nothing is left.
                        let finished = done.load(Ordering::SeqCst);
                        let before = got.len();
                        got.extend(s.steal());
                        got.extend(inj.steal());
                        if finished && got.len() == before {
                            return got;
                        }
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for i in 0..N {
            w.push(i, &inj);
            if i % 3 == 0 {
                all.extend(w.pop());
            }
        }
        while let Some(b) = w.pop() {
            all.push(b);
        }
        done.store(true, Ordering::SeqCst);
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_a_ring_drops_what_is_left_in_it() {
        let marker = Arc::new(());
        let inj = Injector::new();
        let w = Local::<Arc<()>, 4>::new();
        let s = w.stealer();
        for _ in 0..6 {
            w.push(marker.clone(), &inj);
        }
        drop(s.steal());
        drop(w.pop());
        assert_eq!(Arc::strong_count(&marker), 5);
        drop(w);
        assert_eq!(Arc::strong_count(&marker), 5, "a stealer keeps the ring");
        drop(s);
        assert_eq!(Arc::strong_count(&marker), 3, "two are in the injector");
        drop(inj);
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    // ---- exhaustive interleavings of the ring and the injector ----------

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        /// Owner: push this id (spilling to the injector when full).
        Push(u64),
        /// Owner: pop.
        Pop,
        /// Owner: `steal_batch_and_pop` into the own ring.
        Refill,
        /// Thief: steal from the ring.
        Steal,
        /// Thief: take from the injector.
        Take,
    }

    struct World<const CAP: usize> {
        local: Local<u64, CAP>,
        stealer: Stealer<u64, CAP>,
        inj: Injector<u64>,
    }

    /// Everything the modelled threads share.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Mem {
        done: u32,
        top: u32,
        bottom: u32,
        slots: Vec<u64>,
        inj: Vec<u64>,
    }

    /// Where the modelled rings start counting: two pushes before the
    /// indices wrap.
    const START: u32 = u32::MAX - 1;

    /// One modelled thread: which operation it is in, the scheduling
    /// points of that operation it has passed, and what its finished
    /// operations returned. Its code is deterministic, so this is its
    /// whole state.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    struct Thread {
        pc: usize,
        log: Vec<[u64; 2]>,
        got: Vec<Option<u64>>,
    }

    impl<const CAP: usize> World<CAP> {
        fn new() -> Self {
            let local = Local::new();
            let world = World {
                stealer: local.stealer(),
                local,
                inj: Injector::new(),
            };
            // Every slot initialised (to an id nobody pushes), so the
            // snapshots below may read all of them.
            world.restore(&Mem {
                done: START,
                top: START,
                bottom: START,
                slots: vec![0; CAP],
                inj: Vec::new(),
            });
            world
        }

        fn snapshot(&self) -> Mem {
            let ring = &self.local.ring;
            let (done, top) = unpack(ring.head.0.load(Ordering::SeqCst));
            Mem {
                done,
                top,
                bottom: ring.bottom.0.load(Ordering::SeqCst),
                // SAFETY: single-threaded here, and `new` initialised
                // every slot.
                slots: (ring.slots.iter())
                    .map(|slot| unsafe { (*slot.get()).assume_init_read() })
                    .collect(),
                inj: self.inj.queue.lock().iter().copied().collect(),
            }
        }

        fn restore(&self, mem: &Mem) {
            let ring = &self.local.ring;
            ring.head.0.store(pack(mem.done, mem.top), Ordering::SeqCst);
            ring.bottom.0.store(mem.bottom, Ordering::SeqCst);
            for (slot, &id) in ring.slots.iter().zip(&mem.slots) {
                // SAFETY: single-threaded here.
                unsafe { (*slot.get()).write(id) };
            }
            let mut q = self.inj.queue.lock();
            q.clear();
            q.extend(&mem.inj);
            self.inj.len.store(q.len(), Ordering::SeqCst);
        }

        fn run(&self, op: Op) -> Option<u64> {
            match op {
                Op::Push(id) => {
                    self.local.push(id, &self.inj);
                    None
                }
                Op::Pop => self.local.pop(),
                Op::Refill => self.inj.steal_batch_and_pop(&self.local),
                Op::Steal => self.stealer.steal(),
                Op::Take => self.inj.steal(),
            }
        }
    }

    /// Visit every reachable state of `scripts` (thread 0 is the owner,
    /// the rest are thieves) on a ring of `CAP` slots with `seed` already
    /// in the injector; check every terminal state. Returns the number of
    /// distinct states.
    fn explore<const CAP: usize>(seed: &[u64], scripts: &[Vec<Op>]) -> usize {
        let world = World::<CAP>::new();
        for &id in seed {
            world.inj.push(id);
        }
        let mut seen = HashSet::new();
        let mut stack = vec![(world.snapshot(), vec![Thread::default(); scripts.len()])];
        while let Some(state) = stack.pop() {
            if seen.contains(&state) {
                continue;
            }
            let (mem, threads) = &state;
            let mut terminal = true;
            for (i, script) in scripts.iter().enumerate() {
                let Some(&op) = script.get(threads[i].pc) else {
                    continue;
                };
                terminal = false;
                world.restore(mem);
                let mut next = threads.clone();
                let thread = &mut next[i];
                if let Some(result) = model::advance(&mut thread.log, || world.run(op)) {
                    thread.got.push(result);
                    thread.pc += 1;
                    thread.log.clear();
                }
                stack.push((world.snapshot(), next));
            }
            if terminal {
                check::<CAP>(seed, scripts, mem, threads);
            }
            seen.insert(state);
        }
        seen.len()
    }

    /// What must hold once every thread has finished.
    fn check<const CAP: usize>(seed: &[u64], scripts: &[Vec<Op>], mem: &Mem, threads: &[Thread]) {
        let context = || format!("cap {CAP}, scripts {scripts:?}, end state {mem:?} {threads:?}");
        let queued = distance(mem.bottom, mem.top);
        assert!(
            mem.done == mem.top && (0..=CAP as i32).contains(&queued),
            "ring indices out of shape: {}",
            context()
        );
        // Exactly once: what went in is what came out or is still queued.
        let mut put: Vec<u64> = seed.to_vec();
        put.extend(scripts[0].iter().filter_map(|op| match op {
            Op::Push(id) => Some(*id),
            _ => None,
        }));
        let in_ring = (0..queued as u32).map(|i| mem.slots[mem.top.wrapping_add(i) as usize % CAP]);
        let mut out: Vec<u64> = threads
            .iter()
            .flat_map(|t| t.got.iter().flatten().copied())
            .chain(in_ring.clone())
            .chain(mem.inj.iter().copied())
            .collect();
        put.sort_unstable();
        out.sort_unstable();
        assert_eq!(put, out, "lost or duplicated: {}", context());

        // LIFO for the owner: a pop returns the newest item the owner put
        // in its ring and has not popped (thieves and spills only ever
        // remove older ones); an empty pop means all of those are gone.
        // The one way a newer push is passed over: it found the ring full
        // with a thief mid-copy and went straight to the injector.
        let refills = scripts[0].iter().any(|op| matches!(op, Op::Refill));
        let takes = scripts.iter().zip(threads).flat_map(|(script, thread)| {
            let taken = script.iter().zip(&thread.got);
            taken.filter_map(|(op, got)| got.filter(|_| *op == Op::Take))
        });
        let via_injector: Vec<u64> = takes.chain(mem.inj.iter().copied()).collect();
        let mut mine: Vec<u64> = Vec::new();
        for (op, got) in scripts[0].iter().zip(&threads[0].got) {
            match (op, got) {
                (Op::Push(id), _) => mine.push(*id),
                (Op::Pop, None) => mine.clear(),
                (Op::Pop, Some(id)) if mine.contains(id) => {
                    while let Some(newer) = mine.pop().filter(|newer| newer != id) {
                        assert!(
                            refills || via_injector.contains(&newer),
                            "owner pop not LIFO: {}",
                            context()
                        );
                    }
                }
                // Came in through a refill: nothing to say about order.
                _ => {}
            }
        }
        // FIFO for thieves: ids grow in push order, so whatever one thief
        // takes from one queue it takes in growing order, and what is
        // left in the ring and in the injector is in order too. (A refill
        // moves seed items into the ring beside pushed ones and a spill
        // moves them back, so with one in the script queue order is no
        // longer id order and only the two checks above apply.)
        if refills {
            return;
        }
        for (script, thread) in scripts.iter().zip(threads).skip(1) {
            for kind in [Op::Steal, Op::Take] {
                let taken = script.iter().zip(&thread.got);
                let taken: Vec<u64> = taken
                    .filter_map(|(op, got)| got.filter(|_| *op == kind))
                    .collect();
                assert!(taken.is_sorted(), "thief not FIFO: {}", context());
            }
        }
        assert!(mem.inj.is_sorted(), "injector out of order: {}", context());
        assert!(in_ring.is_sorted(), "ring out of order: {}", context());
    }

    fn explore_all_caps(seed: &[u64], owner: impl Fn(u64) -> Vec<Op>, thieves: &[Vec<Op>]) {
        fn at<const CAP: usize>(seed: &[u64], owner: Vec<Op>, thieves: &[Vec<Op>]) {
            let mut scripts = vec![owner];
            scripts.extend_from_slice(thieves);
            let states = explore::<CAP>(seed, &scripts);
            assert!(states > 100, "explorer barely ran: {states} states");
        }
        at::<2>(seed, owner(2), thieves);
        at::<4>(seed, owner(4), thieves);
    }

    /// Fill the ring past its capacity (the last push spills the oldest
    /// half to the injector), then pop — against one thief and against
    /// two.
    #[test]
    fn model_overflow_against_thieves() {
        let owner = |pops: usize| {
            move |cap: u64| {
                let mut ops: Vec<Op> = (1..=cap + 1).map(Op::Push).collect();
                ops.extend(vec![Op::Pop; pops]);
                ops
            }
        };
        explore_all_caps(&[], owner(2), &[vec![Op::Steal, Op::Steal, Op::Take]]);
        explore_all_caps(&[], owner(1), &[vec![Op::Steal, Op::Take], vec![Op::Steal]]);
    }

    /// Push and pop around an almost-empty ring, where the owner and the
    /// thieves race for the last item.
    #[test]
    fn model_last_item_races() {
        let owner = |_| {
            vec![
                Op::Push(1),
                Op::Pop,
                Op::Push(2),
                Op::Push(3),
                Op::Pop,
                Op::Pop,
                Op::Pop,
            ]
        };
        explore_all_caps(&[], owner, &[vec![Op::Steal, Op::Steal, Op::Steal]]);
        let owner = |_| vec![Op::Push(1), Op::Push(2), Op::Pop, Op::Pop, Op::Pop];
        explore_all_caps(&[], owner, &[vec![Op::Steal, Op::Steal], vec![Op::Steal]]);
    }

    /// Refill the ring from a seeded injector while thieves steal from
    /// both, then push into what the refill left.
    #[test]
    fn model_refill_against_thieves() {
        let seed: Vec<u64> = (1..=9).collect();
        let owner = |_| vec![Op::Refill, Op::Pop, Op::Push(20), Op::Push(21), Op::Pop];
        explore_all_caps(&seed, owner, &[vec![Op::Steal, Op::Take, Op::Steal]]);
        explore_all_caps(&seed, owner, &[vec![Op::Steal, Op::Steal], vec![Op::Take]]);
    }

    /// The explorer must be able to fail: a pop that takes the last item
    /// without racing the thieves for it hands that item out twice.
    #[test]
    fn model_catches_a_duplicated_item() {
        let world = World::<2>::new();
        let pop_without_the_race = || {
            let ring = &world.local.ring;
            let b = ring.bottom.own();
            if b == ring.head.load().1 {
                return None;
            }
            // SAFETY: not upheld — that is the bug being planted. The
            // items are integers, so the double read is only wrong.
            let item = unsafe { ring.take(b.wrapping_sub(1)) };
            ring.bottom.store(b.wrapping_sub(1));
            Some(item)
        };
        world.local.push(7, &world.inj);
        // The thief up to (not including) its claim, then the broken
        // pop, then the thief's claim and copy: both get item 7.
        let mut thief_log = Vec::new();
        for _ in 0..2 {
            assert!(model::advance(&mut thief_log, || world.stealer.steal()).is_none());
        }
        let mut owner_log = Vec::new();
        let popped = loop {
            if let Some(got) = model::advance(&mut owner_log, pop_without_the_race) {
                break got;
            }
        };
        let stolen = loop {
            if let Some(got) = model::advance(&mut thief_log, || world.stealer.steal()) {
                break got;
            }
        };
        assert_eq!((popped, stolen), (Some(7), Some(7)));
    }

    // ---- the sleep protocol -----------------------------------------------

    /// Lost-wake-up stress. Parks are untimed, so one lost wake-up leaves
    /// a worker asleep beside a non-empty queue for good. Spinning is off
    /// and every push waits for a worker to finish the re-check that
    /// found nothing — the window between announce and commit — so wake
    /// and park race every time.
    #[test]
    fn no_wake_up_is_lost_between_announce_and_commit() {
        lost_wake_up_stress(Poll::No);
    }

    /// The same stress where the workers drive a poller, as a TCP rank's
    /// do: whoever takes it parks in its blocking wait (an empty heap's
    /// untimed park, which only the poll waker ends, as an eventfd ends
    /// `epoll_wait`) and gives it back when it wakes; the others park on
    /// their threads. Half the pushes notify the eventcount, which must
    /// reach the worker in the poller too; the other half only kick the
    /// poller, as a TCP send does, which must be enough because a worker
    /// that could not take the poller is handed it when it comes free.
    #[test]
    fn no_wake_up_is_lost_by_a_worker_parked_in_the_poller() {
        lost_wake_up_stress(Poll::Poller);
    }

    /// The same stress where the poller is a locality's timer heap, as an
    /// in-process locality's is: producers arm items instead of pushing
    /// them — half due at once, half 50 µs on — and kick the holder when
    /// one is the heap's earliest; whoever holds the poller moves what is
    /// due into the queue and parks on the heap, timed while anything is
    /// armed and untimed when nothing is. Every armed item must fire.
    #[test]
    fn no_armed_item_is_lost_by_a_worker_parked_on_the_heap() {
        lost_wake_up_stress(Poll::Heap);
    }

    /// What the workers of [`lost_wake_up_stress`] drive.
    #[derive(Clone, Copy, PartialEq)]
    enum Poll {
        No,
        Poller,
        Heap,
    }

    /// A poller to park in: a heap on the real clock, as in-process.
    fn poller(sleep: &Sleep) -> crate::clock::Heap<u64> {
        let heap = crate::clock::Heap::new(&crate::clock::Clock::Real);
        let bell = heap.bell();
        sleep.drive_poller(move || bell.ring());
        heap
    }

    fn lost_wake_up_stress(poll: Poll) {
        const PRODUCERS: u64 = 2;
        const WORKERS: usize = 3;
        const PUSHES: u64 = 100_000;
        struct Shared {
            inj: Injector<u64>,
            sleep: Sleep,
            heap: crate::clock::Heap<u64>,
            /// Bumped by a worker after a re-check that found nothing.
            rechecks: AtomicU64,
            taken: AtomicU64,
            sum: AtomicU64,
        }
        let sleep = Sleep {
            spin: false,
            ..Sleep::new(WORKERS)
        };
        let heap = match poll {
            Poll::No => crate::clock::Heap::new(&crate::clock::Clock::Real),
            Poll::Poller | Poll::Heap => poller(&sleep),
        };
        let shared = Arc::new(Shared {
            inj: Injector::new(),
            heap,
            sleep,
            rechecks: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        });
        let (exited, exits) = mpsc::channel();
        for w in 0..WORKERS {
            let (shared, exited) = (shared.clone(), exited.clone());
            std::thread::spawn(move || {
                let all_taken = || shared.taken.load(Ordering::SeqCst) == PUSHES;
                while !all_taken() {
                    while let Some(item) = shared.inj.steal() {
                        shared.sum.fetch_add(item, Ordering::SeqCst);
                        shared.taken.fetch_add(1, Ordering::SeqCst);
                    }
                    if all_taken() {
                        // Whoever takes the last item lets the others go.
                        shared.sleep.notify_all();
                        break;
                    }
                    let ready = || {
                        let ready = !shared.inj.is_empty() || all_taken();
                        if !ready {
                            shared.rechecks.fetch_add(1, Ordering::SeqCst);
                        }
                        ready
                    };
                    let held = (poll != Poll::No).then(|| shared.sleep.try_poll());
                    if let Some(Some(_held)) = held {
                        for item in shared.heap.take_due() {
                            shared.inj.push(item);
                        }
                        let park = || shared.heap.park();
                        shared.sleep.idle_polling(w, false, ready, || {}, park);
                    } else {
                        shared.sleep.idle(w, ready, || {});
                    }
                }
                exited.send(()).unwrap();
            });
        }
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..PUSHES / PRODUCERS {
                        // Wait for a worker to commit to parking; give up
                        // after a while, since they may all be busy.
                        let seen = shared.rechecks.load(Ordering::SeqCst);
                        for _ in 0..200 {
                            if shared.rechecks.load(Ordering::SeqCst) != seen {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        let item = p * PUSHES + i;
                        if poll == Poll::Heap {
                            let delay = Duration::from_micros(50 * (i % 2));
                            if shared.heap.arm(shared.heap.now() + delay, item) {
                                shared.sleep.kick();
                            }
                            continue;
                        }
                        shared.inj.push(item);
                        if poll == Poll::Poller && i % 2 == 1 {
                            shared.sleep.kick();
                        } else {
                            shared.sleep.notify_one();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for _ in 0..WORKERS {
            exits
                .recv_timeout(Duration::from_secs(60))
                .expect("a worker is still parked: its wake-up was lost");
        }
        let per_producer = PUSHES / PRODUCERS;
        let expected: u64 = (0..PRODUCERS)
            .map(|p| per_producer * p * PUSHES + per_producer * (per_producer - 1) / 2)
            .sum();
        assert_eq!(shared.sum.load(Ordering::SeqCst), expected);
        assert!(
            shared.rechecks.load(Ordering::SeqCst) > PUSHES / 100,
            "the workers hardly ever reached the window"
        );
    }

    /// A spinning worker takes the wake-up duty: a producer that sees one
    /// does not pay for a wake, and the spinner finds the item.
    #[test]
    fn a_spinning_worker_is_not_woken() {
        let sleep = Sleep {
            spin: true,
            ..Sleep::new(2)
        };
        let inj = Injector::new();
        let mut polls = 0;
        let outcome = sleep.idle(
            0,
            || {
                polls += 1;
                if polls == 1 {
                    // The spin's first poll (no deadline can have passed
                    // yet): the eventcount shows a spinner, no sleeper.
                    assert_eq!(sleep.state.load(Ordering::SeqCst), SPINNING);
                    inj.push(1u64);
                    sleep.notify_one();
                }
                !inj.is_empty()
            },
            || panic!("the spinner must not park"),
        );
        assert_eq!(outcome, Idle::Ready);
        assert_eq!(sleep.state.load(Ordering::SeqCst), 0);
        assert_eq!(sleep.workers[0].state.load(Ordering::SeqCst), AWAKE);
    }

    /// The poller's side of the protocol, one rule at a time: a free
    /// poller keeps an idle worker awake; a notify reaches the worker
    /// parked in the poller through the poll waker; and a worker that
    /// parked because the poller was held is woken to take it over when
    /// it is given back.
    #[test]
    fn the_poller_is_free_woken_and_handed_over() {
        // One worker slot per thread: a slot keeps the thread it first
        // parked on.
        let sleep = Arc::new(Sleep {
            spin: false,
            ..Sleep::new(3)
        });
        let poller = Arc::new(poller(&sleep));
        let park = || panic!("a free poller is a reason to be awake");
        assert_eq!(sleep.idle(2, || false, park), Idle::Ready);

        let parked_in_poller = std::thread::spawn({
            let (sleep, poller) = (sleep.clone(), poller.clone());
            move || {
                let _held = sleep.try_poll().expect("nobody holds it");
                sleep.idle_polling(0, false, || false, || {}, || poller.park())
            }
        });
        while sleep.sleeping() == 0 {
            std::thread::yield_now();
        }
        sleep.notify_one();
        assert_eq!(joined(parked_in_poller, "the notify"), Idle::Parked);

        let held = sleep.try_poll().expect("given back");
        // Given back only once the worker is past its re-check: before
        // it, the free poller is a reason not to park at all.
        let parking = Arc::new(AtomicBool::new(false));
        let parked_on_thread = std::thread::spawn({
            let (sleep, parking) = (sleep.clone(), parking.clone());
            move || sleep.idle(1, || false, || parking.store(true, Ordering::SeqCst))
        });
        while !parking.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(joined(parked_on_thread, "the hand-over"), Idle::Parked);
        assert!(sleep.poller_free());
    }

    /// `thread`'s result, once it has returned: parks are untimed, so a
    /// lost wake-up fails here instead of hanging the run.
    fn joined<T>(thread: std::thread::JoinHandle<T>, what: &str) -> T {
        let t0 = Instant::now();
        while !thread.is_finished() {
            assert!(t0.elapsed() < Duration::from_secs(10), "{what} was lost");
            std::thread::yield_now();
        }
        thread.join().unwrap()
    }

    /// The spin is paced: a worker that keeps running dry uses up the lag
    /// its schedule had and then starts to poll `POLLS_PER_SPIN` times per
    /// `SPIN`, however early the item is there.
    #[test]
    fn a_worker_that_keeps_running_dry_is_paced() {
        let sleep = Sleep {
            spin: true,
            ..Sleep::new(1)
        };
        // Long enough for the schedule to be `MAX_LAG` behind.
        std::thread::sleep(2 * MAX_LAG);
        let slot = SPIN / POLLS_PER_SPIN as u32;
        let credit = (MAX_LAG.as_nanos() / slot.as_nanos()) as u32;
        let spins = 3 * credit;
        let start = Instant::now();
        for _ in 0..spins {
            let found = sleep.idle(0, || true, || panic!("the item is there: no park"));
            assert_eq!(found, Idle::Ready);
        }
        // The last poll was due when its period began, up to a `SPIN`
        // before its slot.
        assert!(start.elapsed() >= (spins - credit - 1 - POLLS_PER_SPIN as u32) * slot);
    }

    fn parks(rt: &crate::runtime::Runtime) -> u64 {
        rt.stats().total().parks
    }

    /// A runtime with every worker parked: 2 localities x 2 workers.
    fn parked_runtime() -> crate::runtime::Runtime {
        let rt = crate::runtime::RuntimeBuilder::new(crate::runtime::Config::small(2, 2))
            .build()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while parks(&rt) < 4 {
            assert!(Instant::now() < deadline, "workers never went to sleep");
            std::thread::yield_now();
        }
        rt
    }

    /// Idle is quiet: parked workers stay parked. (With timed parks this
    /// grew by about 250 per worker in 50 ms.) Their idle time is visible
    /// all the same, although none of them wakes to report it.
    #[test]
    fn idle_runtime_does_not_poll() {
        let rt = parked_runtime();
        let before = rt.stats().total();
        std::thread::sleep(Duration::from_millis(50));
        let after = rt.stats().total();
        let woken = after.parks - before.parks;
        assert!(woken <= 4, "{woken} parks in 50 ms of doing nothing");
        let idle = Duration::from_nanos(after.idle_ns - before.idle_ns);
        assert!(
            idle >= 4 * Duration::from_millis(50),
            "four workers parked for 50 ms reported {idle:?} idle"
        );
        rt.shutdown();
    }

    /// Shutdown reaches workers that are parked without a timeout.
    #[test]
    fn shutdown_wakes_parked_workers() {
        let rt = parked_runtime();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            rt.shutdown();
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown hangs on a parked worker");
    }

    /// Work pushed at a parked runtime wakes a worker, and the worker goes
    /// back to sleep afterwards.
    #[test]
    fn parked_workers_wake_for_work_and_park_again() {
        let rt = parked_runtime();
        let before = parks(&rt);
        for round in 0..100u64 {
            let got = rt.run_blocking(crate::gid::LocalityId((round % 2) as u16), move |_| round);
            assert_eq!(got, round);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while parks(&rt) == before {
            assert!(Instant::now() < deadline, "nobody parked again");
            std::thread::yield_now();
        }
        rt.shutdown();
    }
}
