//! The balancer pulse: closes the loop from telemetry to placement.
//!
//! §2.2 of the paper: "If terminating, a parcel is constructed and
//! dispatched to the destination remote data where a new thread is
//! invoked thus moving the work, in essence, to the data." The seed
//! runtime always moves work to data and only rebalances *within* a
//! locality (sibling work stealing). This module adds the cross-locality
//! half, runtime-directed and barrier-free:
//!
//! Each owned locality runs its own pulse: a task on its own timer heap
//! (`Locality::timers`), due one gossip interval on, that its workers
//! queue on the control lane once due and run like any other. A round
//! does three things for its locality alone, then re-arms itself:
//!
//! 1. **Sample** — the locality's [`px_balance::LoadMonitor`] records
//!    its queued work (`Locality::queue_depth`: the injector and every
//!    worker's ring) and staging backlog.
//! 2. **Gossip** — the locality sends its whole [`px_balance::PeerView`]
//!    to one rotating peer as a `__sys/balance_gossip` parcel on the
//!    ordinary (batched) transport. After `n − 1` rounds everyone has
//!    heard from everyone.
//! 3. **Act** — the configured [`px_balance::BalancePolicy`] decides, from
//!    the locality's own gossiped view only:
//!    * *work diffusion*: shed the oldest queued closure tasks to the
//!      least-loaded peer, from the injector and then (in-process) from
//!      each worker ring's FIFO end, where tree-shaped work keeps its
//!      largest subtrees (parcel-addressed tasks stay — they are bound
//!      to objects resident here);
//!    * *heat-driven migration*: ask busier owners to move objects this
//!      locality has been hammering (per [`crate::agas::Agas::drain_heat`])
//!      here. A pull is a request, not a move: a fire-and-forget
//!      `__sys/agas_migrate` parcel that chases the object to its owner,
//!      which runs the same split-phase move as a manual `migrate_data`.
//!      `balance_pulls` counts the requests sent; the moves they cause
//!      are counted where they complete (`migrations_balancer`).
//!
//! Every decision reads only the deciding locality's own monitor and
//! gossip view — the information flow between localities is parcels, so
//! the design transplants directly onto a distributed AGAS. Shutdown
//! stops the pulse where it stands: a round that finds the runtime
//! stopping neither runs nor re-arms.

use crate::action::Value;
use crate::agas::MigrationCause;
use crate::gid::{Gid, GidKind, LocalityId};
use crate::locality::{BalanceState, Lane, Locality};
use crate::origin::Origin;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::RuntimeInner;
use crate::sched::{Task, Work};
use crate::stats::bump;
use crate::sys;
use px_balance::{BalanceConfig, LoadSample, PlacementQuery, ShedQuery};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// When shedding, give up after putting back this many non-sheddable
/// tasks (the oldest work is parcel-bound; keep the pulse cheap instead
/// of trawling every queue).
const PUTBACK_LIMIT: usize = 32;

/// Arm every owned locality's first pulse, one gossip interval on, when
/// the balancer is configured.
pub(crate) fn start(rt: &Arc<RuntimeInner>) {
    let Some(cfg) = &rt.config.balance else {
        return;
    };
    for loc in rt.localities.iter().filter(|loc| rt.owns(loc.id)) {
        arm(loc, loc.timers.now() + cfg.gossip_interval, 0);
    }
}

/// Put `loc`'s next pulse on its heap, due at `at`: round `round` ran
/// last.
fn arm(loc: &Locality, at: Instant, round: u64) {
    let pulse = move |ctx: &mut crate::runtime::Ctx<'_>| {
        pulse(ctx.rt_inner(), ctx.locality(), at, round);
    };
    let task = Task::new(Work::Thread(Box::new(pulse)));
    loc.arm(at, Lane::Control, task, None);
}

/// One round of `loc`'s pulse, due at `due`, then the next one armed an
/// interval on — at once if this one ran more than an interval late.
fn pulse(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, due: Instant, round: u64) {
    // SeqCst: the flag `Runtime::shutdown` stores before it wakes the
    // workers; a round that misses it runs once more, harmlessly.
    let stopping = rt.shutdown.load(Ordering::SeqCst);
    let (Some(cfg), Some(b), false) = (&rt.config.balance, &loc.balance, stopping) else {
        return; // stopping: no round, and no re-arm
    };
    let (round, n) = (round + 1, rt.localities.len());
    sample(loc, b, round);
    if n > 1 {
        gossip(rt, loc, b, round, n);
        // Acting is live over TCP too: each rank decides for its own
        // localities from the gossiped view. Across OS processes sheds
        // ship locality-root-addressed *parcels* (closures do not
        // serialize); heat pulls are the same `__sys/agas_migrate`
        // request on both backends.
        act(rt, cfg, loc, b);
    }
    let next = (due + cfg.gossip_interval).max(loc.timers.now());
    arm(loc, next, round);
}

/// Record one load sample and self-observe the new score.
fn sample(loc: &Locality, b: &BalanceState, round: u64) {
    let sample = LoadSample {
        queue_depth: loc.queue_depth() as u64,
        backlog: loc.staging_depth() as u64,
    };
    let score = {
        let mut m = b.monitor.lock();
        m.record(sample);
        m.score()
    };
    b.peers.lock().observe(loc.id.0 as usize, score, round);
    bump!(loc.counters().gossip_rounds);
}

/// Send `loc`'s view to one rotating peer. The offset walks `1..n`, so
/// over `n − 1` rounds every ordered pair gossips once.
fn gossip(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, b: &BalanceState, round: u64, n: usize) {
    let offset = 1 + (round as usize - 1) % (n - 1);
    let peer = LocalityId(((loc.id.0 as usize + offset) % n) as u16);
    let payload = b.peers.lock().encode_gossip();
    let p = Parcel::new(
        Gid::locality_root(peer),
        sys::BALANCE_GOSSIP,
        Value::from_bytes(payload),
        Continuation::none(),
    );
    Origin::at(rt, loc).send(p);
}

/// Run the policy for `loc`: shed, then pulls.
fn act(rt: &Arc<RuntimeInner>, cfg: &BalanceConfig, loc: &Arc<Locality>, b: &BalanceState) {
    let i = loc.id.0 as usize;
    let (my_score, least) = {
        let peers = b.peers.lock();
        (peers.score_of(i).unwrap_or(0.0), peers.least_loaded(i))
    };
    let Some((least_idx, least_score)) = least else {
        return; // No gossip heard yet: nothing to compare against.
    };
    // Diffusion decisions use min(windowed, instantaneous) load: a spike
    // must persist a while before we shed (no knee-jerk on one burst),
    // and a freshly-drained queue stops shedding immediately instead of
    // lagging a full window behind (which would over-shed and ping-pong
    // the excess back).
    let depth = loc.queue_depth();
    let inst = (depth + loc.staging_depth()) as f64;
    let sq = ShedQuery {
        local_score: my_score.min(inst),
        least_score,
        queue_depth: depth as u64,
        max_shed: cfg.max_shed_per_round,
    };
    let want = cfg.policy.shed(&sq);
    if want > 0 {
        let shed = shed_tasks(rt, loc, LocalityId(least_idx as u16), want);
        if shed > 0 {
            // Optimistic update: the peer just gained `shed` tasks.
            // Without this the stale gossiped score invites repeated
            // dumping (and the excess ping-pongs back).
            b.peers.lock().bump_score(least_idx, shed as f64);
        }
    }
    if cfg.policy.uses_heat() {
        pull_hot(rt, cfg, loc, b, my_score);
    }
}

/// Work diffusion: move up to `max` of `loc`'s oldest queued tasks to
/// `dest` — the injector's first, then, in-process, each worker ring's
/// from its FIFO end, with the claim any thief makes. In-process, closure
/// tasks ship whole; across ranks only locality-root-addressed parcels
/// without process-accounting tokens travel — a root-addressed parcel
/// executes wherever it lands, so it is the one queue entry that moves
/// between OS processes without closure serialization or a chase back.
/// Parcel-bound tasks addressed at resident objects and depleted-thread
/// resumptions (their LCO state lives here) are put back, into the
/// injector. Returns the number shed.
pub(crate) fn shed_tasks(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    dest: LocalityId,
    max: u64,
) -> u64 {
    let cross_rank = !rt.owns(dest);
    // A ring holds work a task made here. Of that only closures move,
    // and only in-process: a root-addressed parcel on a ring was sent to
    // this locality by a task here — a caller's half of a round trip,
    // say — and shipping it off moves the caller.
    let rings = loc.stealers.iter().filter(|_| !cross_rank);
    let mut oldest = std::iter::from_fn(|| loc.injector.steal())
        .chain(rings.flat_map(|ring| std::iter::from_fn(move || ring.steal())));
    let mut shed = 0u64;
    let mut putback: Vec<Task> = Vec::new();
    while shed < max && putback.len() < PUTBACK_LIMIT {
        let Some(task) = oldest.next() else {
            break;
        };
        let sheddable = if cross_rank {
            matches!(
                &task.work,
                Work::Parcel(p) if p.dest.is_hardware() && p.process.is_none() && !p.staged
            )
        } else {
            matches!(task.work, Work::Thread(_))
        };
        if !sheddable {
            putback.push(task);
            continue;
        }
        bump!(loc.counters().tasks_shed);
        loc.trace_event(
            task.trace,
            crate::trace::TraceEventKind::BalanceShed,
            0,
            u64::from(dest.0),
        );
        match task.work {
            Work::Parcel(p) if cross_rank => rt.wire.send_parcel(loc.id, dest, Lane::Run, *p),
            // Same transfer mechanism as a `spawn_at` closure — the task
            // crosses the wire with the nominal header size. Process
            // accounting moves with the task: it was counted started at
            // spawn and completes at the destination.
            _ => rt.wire.send_task(loc.id, dest, task),
        }
        shed += 1;
    }
    for t in putback {
        loc.push_task(t);
    }
    shed
}

/// Heat-driven migration: ask for this round's hottest remote objects to
/// move to the locality that keeps addressing them, when the policy
/// approves.
fn pull_hot(
    rt: &Arc<RuntimeInner>,
    cfg: &BalanceConfig,
    loc: &Arc<Locality>,
    b: &BalanceState,
    my_score: f64,
) {
    let heat = loc.agas.drain_heat(loc.id);
    if heat.is_empty() {
        return;
    }
    // One lock for the whole round: migrations never touch peer views,
    // and per-gid re-locking would contend with worker-side gossip
    // merges for nothing.
    let peers = b.peers.lock();
    let mut pulls = 0u64;
    for (gid, h) in heat {
        if pulls >= cfg.max_pulls_per_round {
            break;
        }
        if gid.kind() != GidKind::Data {
            continue;
        }
        // The owner as this locality's sends see it: the cache the
        // chase repairs, then the directory.
        let owner = loc.agas.resolve(loc.id, gid).owner;
        if owner == loc.id {
            continue;
        }
        let owner_score = peers.score_of(owner.0 as usize);
        let q = PlacementQuery {
            heat: h,
            heat_threshold: cfg.heat_threshold,
            local_score: my_score,
            owner_score,
        };
        if !cfg.policy.pull_data(&q) {
            continue;
        }
        // Data to work: ask the object's owner to run the move toward us.
        // The parcel chases the object like any other, so a stale owner
        // here still finds it. Fire-and-forget: a lost or refused pull
        // only means the object stays put and heat re-accumulates.
        let pull = sys::msg::Migrate {
            to: loc.id,
            cause: MigrationCause::Balancer,
        };
        Origin::at(rt, loc).send(pull.parcel(gid, None));
        bump!(loc.counters().balance_pulls);
        pulls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::runtime::stepped::Stepped;
    use std::time::{Duration, Instant};

    const GOSSIP: Duration = Duration::from_micros(500);

    fn balanced_config(localities: usize, cfg: BalanceConfig) -> Config {
        Config::small(localities, 1).with_balance(BalanceConfig {
            gossip_interval: GOSSIP,
            ..cfg
        })
    }

    /// How many localities `loc`'s balancer has heard about.
    fn known(loc: &Locality) -> usize {
        loc.balance.as_ref().unwrap().peers.lock().known()
    }

    /// Three balanced localities, stepped until `k` gossip intervals have
    /// passed and every round due by then has run.
    fn stepped(k: u32) -> Stepped {
        let cfg = balanced_config(3, BalanceConfig::adaptive());
        let mut s = RuntimeBuilder::new(cfg).stepped(0);
        let loc = s.rt.inner().localities[0].clone();
        let end = loc.timers.now() + k * GOSSIP;
        s.run_until("k intervals", |_| loc.timers.now() >= end);
        s
    }

    /// Each locality's pulse is its own, and no test sleeps to let rounds
    /// pass: two rounds sent each view to both peers, and every locality
    /// has heard about every other once its worker merged them.
    #[test]
    fn gossip_fills_peer_views() {
        let s = stepped(4);
        assert!(s.rt.inner().localities.iter().all(|l| known(l) == 3));
    }

    /// k intervals give exactly n·k rounds; after `shutdown` a due pulse
    /// runs no round and arms no other; and shutdown does not wait out an
    /// interval — one of an hour, on the real clock.
    #[test]
    fn pulses_run_once_per_interval_and_stop_at_shutdown() {
        let mut s = stepped(5);
        let rounds = |s: &Stepped| s.rt.stats().total().gossip_rounds;
        assert_eq!(rounds(&s), 15, "exactly n·k");
        s.rt.shutdown();
        s.settle();
        assert_eq!(rounds(&s), 15, "a round after shutdown");
        let hourly = Config::small(2, 1).with_balance(BalanceConfig {
            gossip_interval: Duration::from_secs(3600),
            ..BalanceConfig::adaptive()
        });
        let rt = RuntimeBuilder::new(hourly).build().unwrap();
        let t0 = Instant::now();
        rt.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(60), "{:?}", t0.elapsed());
    }

    /// Work a task makes is shed too, oldest first. One task at locality
    /// 0 queues a parcel, a released waiter and `N` children on its
    /// worker's ring, in that order. `queue_depth` counts all of them;
    /// shedding `K` to locality 1 puts the parcel and the resumption back
    /// into the injector, ships the first `K` children and leaves the
    /// rest where they were.
    #[test]
    fn shedding_takes_the_oldest_work_a_task_made() {
        const N: usize = 40;
        const K: usize = 15;
        let mut s = RuntimeBuilder::new(Config::small(2, 1)).stepped(0);
        let ran: Arc<parking_lot::Mutex<Vec<(u16, usize)>>> = Arc::default();
        let log = ran.clone();
        s.rt.spawn_at(LocalityId(0), move |ctx| {
            ctx.send_parcel(sys::bare(Gid::locality_root(ctx.here()), sys::NOOP));
            let fut = ctx.new_future::<u64>();
            ctx.when_future(fut, |_, _| {});
            ctx.set_future(fut, &7).unwrap();
            for i in 0..N {
                let log = log.clone();
                ctx.spawn(move |ctx| log.lock().push((ctx.here().0, i)));
            }
        });
        assert!(s.turn(0));
        let rt = s.rt.inner().clone();
        let l0 = rt.localities[0].clone();
        assert_eq!(l0.injector.len(), 0, "all of it is on the ring");
        assert_eq!(l0.queue_depth(), N + 2, "and all of it is counted");
        assert_eq!(shed_tasks(&rt, &l0, LocalityId(1), K as u64), K as u64);
        assert_eq!(l0.injector.len(), 2, "the parcel and the resumption");
        assert_eq!(l0.queue_depth(), N + 2 - K);
        s.settle();
        let ran = ran.lock();
        let at = |l: u16| {
            let mut ran: Vec<usize> = ran.iter().filter(|r| r.0 == l).map(|r| r.1).collect();
            ran.sort_unstable();
            ran
        };
        assert_eq!(at(1), (0..K).collect::<Vec<_>>(), "the oldest K moved");
        assert_eq!(at(0), (K..N).collect::<Vec<_>>(), "the newest stayed");
        let stats = s.rt.stats();
        let (l0, l1) = (&stats.localities[0], &stats.localities[1]);
        assert_eq!((l0.tasks_shed, l0.resumes, l1.resumes), (K as u64, 1, 0));
    }

    /// Stepped, so the heat of all 600 reads is there for the first round
    /// that acts: the clock moves only once the reads are done. (A
    /// wall-clock round saw only the reads of its 500 µs, under the
    /// threshold on a loaded host.)
    #[test]
    fn hot_object_is_pulled_toward_caller() {
        let mut cfg = BalanceConfig::adaptive();
        cfg.heat_threshold = 8;
        let mut s = RuntimeBuilder::new(balanced_config(2, cfg)).stepped(0);
        let obj = s.rt.new_data_at(LocalityId(0), vec![1, 2, 3]);
        // Locality 1 hammers the object with reads; the balancer should
        // migrate it there.
        let done = s.rt.new_and_gate(LocalityId(1), 1);
        s.rt.spawn_at(LocalityId(1), move |ctx| {
            fn pump(ctx: &mut Ctx<'_>, obj: Gid, done: Gid, left: u32) {
                if left == 0 {
                    ctx.trigger_value(done, Value::unit());
                    return;
                }
                let fut = ctx.fetch_data(obj);
                ctx.when_ready(fut.gid(), move |ctx, _| pump(ctx, obj, done, left - 1));
            }
            pump(ctx, obj, done, 600);
        });
        let fut: FutureRef<()> = FutureRef::from_gid(done);
        s.run_until("600 reads", |s| s.take(fut).is_some());
        assert_eq!(
            s.rt.stats().total().gossip_rounds,
            0,
            "a round before the reads ended"
        );
        // Round 1 gossips; round 2, with the peer's view merged, acts.
        let home = s.rt.inner().localities[0].clone();
        s.run_until("the pull", |_| {
            home.agas.authoritative_owner(obj) == LocalityId(1)
        });
        let stats = s.rt.stats();
        assert_eq!((stats.migrations_manual, stats.migrations_balancer), (0, 1));
        assert_eq!(
            stats.total().gossip_rounds,
            4,
            "two rounds at each locality"
        );
        assert_eq!(stats.localities[1].balance_pulls, 1);
    }

    /// `__sys/agas_migrate` is a public action id, so a raw parcel can
    /// aim it at any name. Only a data object moves: an LCO's migrate
    /// parcel faults its continuation, and the LCO stays at its
    /// birthplace, where AGAS resolves it without a lookup.
    #[test]
    fn a_raw_migrate_parcel_moves_only_data() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let lco = rt.inner().localities[0].new_future_lco();
        let to = LocalityId(1);
        let migrate = sys::msg::Migrate {
            to,
            cause: MigrationCause::Manual,
        };
        match rt.sys_rpc(migrate.parcel(lco, None)) {
            Err(PxError::Fault(f)) => {
                assert_eq!(f.cause, FaultCause::HandlerError);
                assert_eq!(f.action, sys::AGAS_MIGRATE);
            }
            other => panic!("expected a fault, got {other:?}"),
        }
        assert!(rt.inner().localities[0].contains(lco));
        assert!(!rt.inner().localities[1].contains(lco));
        assert_eq!(rt.stats().migrations_manual, 0);
        rt.shutdown();
    }

    /// Reads chase an object that migrates back and forth under them:
    /// every read must complete and nothing may die. A move is atomic to
    /// parcels (pinned, and never in neither store), so a read spends a
    /// hop only on a forward that follows a completed move. Still open:
    /// when moves come faster than a locality's queue turns over, a read
    /// is outrun by the object and dies at the hop cap after 16 forwards —
    /// the sleep between moves keeps that rare, not impossible.
    #[test]
    fn migration_race_never_strands_parcels() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let obj = rt.new_data_at(LocalityId(0), vec![7]);
        const N: u64 = 300;
        let gate = rt.new_and_gate(LocalityId(1), N);
        for _ in 0..N {
            rt.spawn_at(LocalityId(1), move |ctx| {
                let fut = ctx.fetch_data(obj);
                ctx.when_ready(fut.gid(), move |ctx, _| {
                    ctx.trigger_value(gate, Value::unit());
                });
            });
        }
        for i in 0..100u16 {
            rt.migrate_data(obj, LocalityId((i + 1) % 2)).unwrap();
            // Let chases settle: without the pause the driver's 100 moves
            // can finish before the reads dispatch, and the race goes
            // unexercised; migrating faster than a queue turns over
            // outruns the chase instead.
            std::thread::sleep(Duration::from_micros(100));
        }
        let fut: FutureRef<()> = FutureRef::from_gid(gate);
        assert!(
            rt.wait_future_timeout(fut, Duration::from_secs(20))
                .unwrap()
                .is_some(),
            "reads stranded by migration race: {:?}",
            rt.stats().total()
        );
        assert_eq!(rt.stats().total().dead_parcels, 0);
        rt.shutdown();
    }

    #[test]
    fn balancer_off_runs_clean() {
        // No balance config: no pulse is armed, so none of the new
        // counters may move, however long the runtime runs.
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let v = rt.run_blocking(LocalityId(1), |ctx| ctx.here().0);
        assert_eq!(v, 1);
        for loc in rt.inner().localities.iter() {
            assert!(loc.timers.pop().is_none(), "a pulse on {}", loc.id);
            assert!(!loc.sleep.polls(), "nothing timed: the workers never drive");
        }
        let t = rt.stats().total();
        assert_eq!(t.gossip_rounds, 0);
        assert_eq!(t.gossip_parcels, 0);
        assert_eq!(t.tasks_shed, 0);
        assert_eq!(t.balance_pulls, 0);
        rt.shutdown();
    }
}
