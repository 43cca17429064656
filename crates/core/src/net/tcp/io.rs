//! The event loop of the TCP backend: the listener, every outbound and
//! inbound connection, the address table, bootstrap connect retries and
//! handshake deadlines, multiplexed on one poller. It is a value, not a
//! thread: whoever holds it runs [`IoLoop::pass`] — bootstrap and shutdown on
//! their caller's thread, and in between ([`IoLoop::drive`]) an idle
//! worker, a busy one every few dozen tasks, or a sender blocked on a
//! peer's byte bound (see the parent module's docs for the thread model,
//! the bootstrap barrier and the failure semantics).

use super::{Park, TcpShared, SEND_QUEUE_BYTES};
use crate::clock::Timers;
use crate::error::FaultCause;
use px_poll::{Event, Interest, WAKE_TOKEN};
use px_wire::stream::{self, msg_kind, StreamAssembler, WriteBatch};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// I/O slices per `write_vectored` call (well under any `IOV_MAX`).
const MAX_WRITE_SLICES: usize = 64;
/// Read chunk size for inbound connections.
const READ_CHUNK: usize = 64 * 1024;
/// Reads of one connection per pass: a worker that holds the loop goes
/// back to running what it read, and a peer that keeps sending is read
/// again on the next pass (the poller is level-triggered).
const READS_PER_PASS: usize = 16;
/// Spacing between bootstrap connect attempts (a poller timer, never a
/// sleep).
pub(super) const CONNECT_RETRY: Duration = Duration::from_millis(25);
/// Deadline for one nonblocking connect attempt to become writable.
const CONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);
/// Deadline for an accepted connection to produce its handshake — a
/// silent stranger (port scanner, health checker) is dropped then.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long shutdown keeps the loop alive to flush pending writes
/// before counting the leftovers as transport deaths.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Poll token namespaces (`u64::MAX` is the poller's wake token).
const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_OUT_BASE: u64 = 1 << 32;
const TOKEN_IN_BASE: u64 = 2 << 32;

/// Outbound connection state for one peer. `Waiting` and `Connecting`
/// exist only while the mesh bootstraps; afterwards a connection is `Up`
/// until it is lost, and `Down` for good.
enum Conn {
    /// Not dialling: the peer's address is not learned yet, or a
    /// bootstrap retry timer is pending.
    Waiting,
    /// Nonblocking connect in flight (completion = writability).
    Connecting(TcpStream),
    /// Connected; handshake and queued messages flow.
    Up(TcpStream),
    /// The peer is dead to this process (see [`IoLoop::peer_lost`]).
    Down,
}

/// Loop-owned per-peer state (the submit side lives in [`PeerSlot`]).
struct PeerIo {
    conn: Conn,
    /// Queued wire bytes with partial-write carry-over.
    batch: WriteBatch,
    /// Unsent handshake bytes, written ahead of any traffic and not
    /// counted as traffic: the hello, and on rank 0 the table after it.
    hello: Vec<u8>,
    /// Interest currently registered for the outbound socket.
    registered: Option<Interest>,
    /// Guards stale `ConnectTimeout` timers across attempts.
    attempt_seq: u64,
    /// Outbound half of the bootstrap barrier: handshake fully flushed
    /// once.
    hello_done: bool,
}

/// One accepted inbound connection (peer unknown until its handshake).
struct InConn {
    stream: TcpStream,
    /// Where the connection came from: the peer listens at this IP.
    from: SocketAddr,
    peer: Option<u16>,
    asm: StreamAssembler,
    hello: [u8; stream::HANDSHAKE_LEN],
    hello_got: usize,
    /// Guards stale `HelloTimeout` timers across slab-slot reuse.
    seq: u64,
}

/// Timed work folded into the poll timeout (never a sleep).
enum TimerKind {
    /// Retry the outbound connect to a peer (bootstrap only).
    Retry(u16),
    /// A connect attempt (identified by seq) ran out of time.
    ConnectTimeout(u16, u64),
    /// An inbound connection (slab idx, seq) never sent its handshake.
    HelloTimeout(usize, u64),
    /// The bootstrap barrier ran out of time.
    Bootstrap,
    /// Shutdown stops draining and counts the leftovers.
    Drain,
}

pub(super) struct IoLoop {
    shared: Arc<TcpShared>,
    listener: TcpListener,
    /// Where each rank listens, as far as this rank has learned (see
    /// [`IoLoop::learn`]); this rank's own entry is set once the table is
    /// in, on rank 0 from the start.
    addrs: Vec<Option<SocketAddr>>,
    peers: Vec<Option<PeerIo>>,
    inbound: Vec<Option<InConn>>,
    inbound_seq: u64,
    timers: Timers<TimerKind>,
    /// Barrier state: which peers have handshaked in.
    seen_in: Vec<bool>,
    heard: usize,
    /// The bootstrap barrier: `None` while the mesh comes up, then how
    /// that went. Until it resolves, connect attempts retry (its deadline
    /// bounds them); afterwards nothing dials.
    barrier: Option<Result<(), String>>,
    /// What the last wait reported ready.
    events: Vec<Event>,
    /// A sender held a port this loop pulled: the next wait does not
    /// block, so what the sender leaves there is pulled without a wake.
    again: bool,
    /// Read buffer shared by every inbound connection (one is drained at
    /// a time).
    read_chunk: Vec<u8>,
}

impl IoLoop {
    /// The loop for `shared`'s rank, already at work: the listener
    /// (bound at `port`) registered, rank 0 (at `rank0`) being dialled
    /// from any other rank, the barrier's deadline armed.
    pub(super) fn new(
        shared: Arc<TcpShared>,
        listener: TcpListener,
        port: u16,
        rank0: SocketAddr,
        bootstrap_deadline: Instant,
    ) -> IoLoop {
        let n = shared.localities.len();
        let hello = stream::encode_handshake(shared.rank, port);
        let peers = (0..n as u16)
            .map(|j| {
                (j != shared.rank).then(|| PeerIo {
                    conn: Conn::Waiting,
                    batch: WriteBatch::new(),
                    hello: hello.to_vec(),
                    registered: None,
                    attempt_seq: 0,
                    hello_done: false,
                })
            })
            .collect();
        let mut io = IoLoop {
            shared,
            listener,
            addrs: vec![None; n],
            peers,
            inbound: Vec::new(),
            inbound_seq: 0,
            timers: Timers::new(),
            seen_in: vec![false; n],
            heard: 0,
            barrier: None,
            events: Vec::new(),
            again: false,
            read_chunk: vec![0u8; READ_CHUNK],
        };
        let listener = io.listener.as_raw_fd();
        if (io.shared.poller)
            .register(listener, TOKEN_LISTENER, Interest::READABLE)
            .is_err()
        {
            io.fail_bootstrap("tcp: registering the listener failed".into());
            return io;
        }
        io.timers.push(bootstrap_deadline, TimerKind::Bootstrap);
        // Rank 0's address is the one known in advance: any other rank
        // dials it now, and every other peer once it is learned.
        io.learn(0, rank0);
        io.check_barrier();
        io
    }

    /// Run the loop until the bootstrap barrier resolves, and say how.
    pub(super) fn bootstrap(&mut self) -> Result<(), String> {
        loop {
            if let Some(barrier) = &self.barrier {
                return barrier.clone();
            }
            self.pass(true);
        }
    }

    /// One step of the loop: [`IoLoop::wait`], then [`IoLoop::handle`].
    /// A pass that does not block pulls and writes first: what the
    /// caller's own tasks sent leaves before it reads.
    fn pass(&mut self, block: bool) {
        if !block {
            self.pump_sends();
        }
        self.wait(block);
        self.handle();
    }

    /// Wait for readiness: with `block`, until something is ready or the
    /// next timer falls due (untimed when none is armed); else not at
    /// all.
    fn wait(&mut self, block: bool) {
        let timeout = if block && !self.again {
            self.timers.timeout(Instant::now())
        } else {
            Some(Duration::ZERO)
        };
        if self.shared.poller.wait(&mut self.events, timeout).is_err() {
            // A broken poller cannot make progress: fail loudly if the
            // barrier still waits.
            self.fail_bootstrap("tcp: poller wait failed".into());
        }
    }

    /// Handle what the last wait reported, fire due timers, then pull the
    /// ports and drain the queues into writes.
    fn handle(&mut self) {
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => {} // queues scanned below
                TOKEN_LISTENER => self.accept_ready(),
                t if t >= TOKEN_IN_BASE => self.inbound_ready((t - TOKEN_IN_BASE) as usize),
                t if t >= TOKEN_OUT_BASE => {
                    self.outbound_ready((t - TOKEN_OUT_BASE) as u16, ev.writable())
                }
                _ => {}
            }
        }
        self.events = events;
        self.fire_due_timers();
        self.pump_sends();
    }

    /// What a thread that took the loop runs (`Transport::drive`): a
    /// nonblocking pass, then — given `park` — the blocking wait, handed
    /// to `park`, and a pass over what it brought. With a port left held
    /// there is no park: the caller comes straight back to pull it.
    pub(super) fn drive(&mut self, park: Option<Park<'_>>) {
        self.pass(false);
        if let Some(park) = park.filter(|_| !self.again) {
            let mut woke = false;
            park(&mut || {
                self.wait(true);
                woke = true;
            });
            if woke {
                self.handle();
            }
        }
    }

    // -- timers -------------------------------------------------------------

    fn fire_due_timers(&mut self) {
        let now = Instant::now();
        while let Some(kind) = self.timers.pop_due(now) {
            match kind {
                TimerKind::Retry(j) => {
                    if self.barrier.is_none() && matches!(self.peer_io(j).conn, Conn::Waiting) {
                        self.start_connect(j);
                    }
                }
                TimerKind::ConnectTimeout(j, seq) => {
                    let io = self.peer_io(j);
                    if io.attempt_seq == seq && matches!(io.conn, Conn::Connecting(_)) {
                        self.connect_attempt_failed(j, "connect timed out");
                    }
                }
                TimerKind::HelloTimeout(idx, seq) => {
                    let stale = match self.inbound.get(idx).and_then(Option::as_ref) {
                        Some(c) => c.seq != seq || c.peer.is_some(),
                        None => true,
                    };
                    if !stale {
                        // Silent stranger: drop before it touches any
                        // runtime state (we never learned who it was).
                        self.drop_inbound(idx);
                    }
                }
                TimerKind::Bootstrap => {
                    if self.barrier.is_none() {
                        let n = self.shared.localities.len();
                        self.fail_bootstrap(format!(
                            "tcp bootstrap barrier timed out: {} of {} peers handshaked",
                            self.heard,
                            n - 1
                        ));
                    }
                }
                TimerKind::Drain => {
                    // Ends the blocking wait of `shut_down`'s drain.
                }
            }
        }
    }

    // -- bootstrap barrier --------------------------------------------------

    fn fail_bootstrap(&mut self, why: String) {
        self.barrier.get_or_insert(Err(why));
    }

    fn check_barrier(&mut self) {
        if self.barrier.is_some() {
            return;
        }
        let n = self.shared.localities.len();
        let out_ready = self.peers.iter().flatten().filter(|p| p.hello_done).count();
        if self.heard == n - 1 && out_ready == n - 1 {
            self.barrier = Some(Ok(()));
            // Every connection is up: what is left on the queue for
            // dialling and for the barrier is moot, and a loop with
            // nothing to time blocks untimed.
            self.timers
                .retain(|kind| matches!(kind, TimerKind::HelloTimeout(..)));
        }
    }

    // -- the address table -------------------------------------------------

    /// Rank `j` listens at `addr`: the first time this rank learns it,
    /// record it and dial `j` (unless `j` is this rank). A peer is
    /// learned from its hello (the IP its connection came from, the port
    /// it reported) or from rank 0's table, whichever comes first.
    fn learn(&mut self, j: u16, addr: SocketAddr) {
        if self.addrs[j as usize].is_some() {
            return;
        }
        self.addrs[j as usize] = Some(addr);
        if j != self.shared.rank {
            self.start_connect(j);
        }
    }

    /// Rank 0, with every peer's hello heard (so every rank learned):
    /// queue the table behind the hello on every outbound connection.
    fn send_table(&mut self) {
        let table: Vec<SocketAddr> = self.addrs.iter().flatten().copied().collect();
        let body = stream::encode_table(&table);
        let header = stream::encode_msg_header(msg_kind::TABLE, body.len() as u32);
        for j in 0..self.peers.len() as u16 {
            if let Some(io) = self.peers[j as usize].as_mut() {
                io.hello.extend([&header[..], &body].concat());
                self.flush_peer(j);
            }
        }
    }

    /// A table arrived from peer `from`. Only rank 0 sends one, once: on
    /// any other connection, or a second time, it is a desynchronized
    /// stream (`false`), and nothing of it is learned.
    fn learn_table(&mut self, from: u16, body: &[u8]) -> bool {
        let first = from == 0 && self.addrs[self.shared.rank as usize].is_none();
        match stream::decode_table(body, self.addrs.len()) {
            Ok(table) if first => {
                for (j, addr) in table.into_iter().enumerate() {
                    self.learn(j as u16, addr);
                }
                true
            }
            _ => false,
        }
    }

    // -- outbound -----------------------------------------------------------

    fn peer_io(&mut self, j: u16) -> &mut PeerIo {
        self.peers[j as usize]
            .as_mut()
            .expect("peer io exists for every non-self locality")
    }

    fn out_token(j: u16) -> u64 {
        TOKEN_OUT_BASE + u64::from(j)
    }

    /// Begin a nonblocking connect attempt toward `j`.
    fn start_connect(&mut self, j: u16) {
        let addr = self.addrs[j as usize].expect("a peer is dialled once learned");
        let io = self.peer_io(j);
        io.attempt_seq += 1;
        let seq = io.attempt_seq;
        match px_poll::connect_nonblocking(&addr) {
            Ok(stream) => {
                let register = self.shared.poller.register(
                    stream.as_raw_fd(),
                    Self::out_token(j),
                    Interest::WRITABLE,
                );
                let io = self.peer_io(j);
                match register {
                    Ok(()) => {
                        io.conn = Conn::Connecting(stream);
                        io.registered = Some(Interest::WRITABLE);
                        self.timers.push(
                            Instant::now() + CONNECT_ATTEMPT_TIMEOUT,
                            TimerKind::ConnectTimeout(j, seq),
                        );
                    }
                    Err(_) => {
                        drop(stream);
                        self.connect_attempt_failed(j, "poller registration failed");
                    }
                }
            }
            Err(_) => self.connect_attempt_failed(j, "connect failed"),
        }
    }

    /// One connect attempt failed. While the mesh bootstraps that is a
    /// peer not up yet: retry on a timer, bounded by the barrier deadline.
    fn connect_attempt_failed(&mut self, j: u16, why: &str) {
        if self.barrier.is_some() {
            // Only a failed bootstrap leaves an attempt in flight (the
            // barrier resolves with every connection up).
            return self.peer_lost(j, why);
        }
        let io = self.peer_io(j);
        io.registered = None;
        io.conn = Conn::Waiting;
        self.timers
            .push(Instant::now() + CONNECT_RETRY, TimerKind::Retry(j));
    }

    /// The one failure transition: a connection to or from `j` is gone,
    /// so `j` is dead to this process. Close its send queue and the
    /// outbound socket, kill everything batched or queued loudly, and
    /// never dial again — whoever listens on that address later is not
    /// the peer these parcels were addressed to.
    fn peer_lost(&mut self, j: u16, why: &str) {
        let io = self.peer_io(j);
        io.conn = Conn::Down;
        io.registered = None;
        io.hello.clear();
        let mut dead = io.batch.drain_msgs();
        self.shared.peer(j).set_unwritten(0);
        dead.extend(self.shared.close_peer(j, why));
        if self.shared.shutting_down.load(Ordering::Acquire) {
            // No runtime task at teardown (the scheduler may be gone):
            // a connection lost now just counts its leftovers.
            self.shared.count_deaths(&dead);
        } else {
            self.shared.kill_undeliverable(j, dead);
        }
    }

    /// Readiness on the outbound socket of peer `j`.
    fn outbound_ready(&mut self, j: u16, writable: bool) {
        match &self.peer_io(j).conn {
            Conn::Connecting(stream) => {
                if !writable {
                    return;
                }
                match px_poll::take_socket_error(stream) {
                    Ok(()) => {
                        // Connected: the handshake goes first.
                        let io = self.peer_io(j);
                        let Conn::Connecting(stream) = std::mem::replace(&mut io.conn, Conn::Down)
                        else {
                            unreachable!("matched Connecting above");
                        };
                        io.conn = Conn::Up(stream);
                        self.flush_peer(j);
                    }
                    Err(_) => self.connect_attempt_failed(j, "connect refused"),
                }
            }
            Conn::Up(_) => {
                if writable {
                    self.flush_peer(j);
                }
                self.drain_outbound_read(j);
            }
            Conn::Waiting | Conn::Down => {}
        }
    }

    /// The peer never writes on our outbound (simplex) connection, so
    /// any read readiness is EOF/RST — the only way to notice a dropped
    /// peer between writes.
    fn drain_outbound_read(&mut self, j: u16) {
        let mut probe = [0u8; 512];
        let lost = {
            let Conn::Up(stream) = &mut self.peer_io(j).conn else {
                return;
            };
            loop {
                match stream.read(&mut probe) {
                    Ok(0) => break true,
                    Ok(_) => continue, // protocol garbage; discard
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if lost {
            self.peer_lost(j, "connection closed by peer");
        }
    }

    /// Write the hello and batched messages toward `j` until done or the
    /// socket fills; adjust epoll interest to match what remains.
    fn flush_peer(&mut self, j: u16) {
        let shared = self.shared.clone();
        let io = self.peer_io(j);
        let Conn::Up(stream) = &mut io.conn else {
            return;
        };
        let mut failed = false;
        // Handshake bytes go first, unvectored (once).
        while !io.hello.is_empty() {
            match stream.write(&io.hello) {
                Ok(n) => {
                    io.hello.drain(..n);
                    if io.hello.is_empty() {
                        io.hello_done = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        let c = &shared.peer(j).counters;
        while !failed && io.hello.is_empty() && !io.batch.is_empty() {
            let mut slices = Vec::with_capacity(MAX_WRITE_SLICES);
            io.batch.unwritten_slices(&mut slices, MAX_WRITE_SLICES);
            match stream.write_vectored(&slices) {
                Ok(n) => {
                    drop(slices);
                    c.bytes_sent.add(n as u64);
                    io.batch.advance_with(n, |kind| {
                        c.msgs_sent.add(1);
                        if kind == msg_kind::FRAME || kind == msg_kind::FRAME_STAGED {
                            c.frames_sent.add(1);
                        }
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
        }
        if failed {
            self.peer_lost(j, "write failed");
            return;
        }
        let unwritten = io.batch.remaining_bytes();
        shared.peer(j).set_unwritten(unwritten);
        self.update_interest(j);
        self.check_barrier();
    }

    /// Keep the outbound socket's epoll interest in sync: writable only
    /// while there are bytes to push (level-triggered OUT on an idle
    /// socket would spin the loop).
    fn update_interest(&mut self, j: u16) {
        let shared = self.shared.clone();
        let io = self.peer_io(j);
        let Conn::Up(stream) = &io.conn else { return };
        let want = if io.hello.is_empty() && io.batch.is_empty() {
            Interest::READABLE
        } else {
            Interest::BOTH
        };
        if io.registered != Some(want) {
            let fd = stream.as_raw_fd();
            let res = match io.registered {
                Some(_) => shared.poller.reregister(fd, Self::out_token(j), want),
                None => shared.poller.register(fd, Self::out_token(j), want),
            };
            if res.is_ok() {
                io.registered = Some(want);
            }
        }
    }

    /// Pull the coalescing ports into the per-peer send queues, move
    /// queued messages into per-peer write batches, and flush. Whatever
    /// gathered in a port while no pass ran rides one frame: batching is
    /// paid for by load.
    ///
    /// A batch takes data while it holds less than [`SEND_QUEUE_BYTES`]:
    /// toward a peer that stops reading, what waits here and in the queue
    /// stays under two bounds, and senders block at the queue's.
    fn pump_sends(&mut self) {
        self.again = false;
        for j in 0..self.peers.len() as u16 {
            let Some(slot) = &self.shared.peers[j as usize] else {
                continue;
            };
            let pulled_all = self.shared.pull_ports(crate::gid::LocalityId(j));
            let (moved, under_bound) = {
                let mut q = slot.queue.lock();
                let io = self.peers[j as usize].as_mut().expect("peer io");
                // Drain time closes the NetRtt window opened at submit —
                // both stamps from this rank's clock.
                let own = self.shared.own();
                let mut moved = 0;
                let mut push = |batch: &mut WriteBatch, m: super::OutMsg| {
                    own.metric_elapsed(crate::metrics::Instrument::NetRtt, m.submitted);
                    moved += m.bytes.len();
                    batch.push(m.kind, m.bytes);
                };
                // Control first, and never held back.
                for m in q.control.drain(..) {
                    push(&mut io.batch, m);
                }
                while let Some(next) = q.data.front() {
                    let fits = io.batch.remaining_bytes() + next.bytes.len() <= SEND_QUEUE_BYTES;
                    if !(fits || io.batch.is_empty()) {
                        break;
                    }
                    let m = q.data.pop_front().expect("looked at the front");
                    push(&mut io.batch, m);
                }
                q.queued_bytes -= moved;
                (moved > 0, io.batch.remaining_bytes() < SEND_QUEUE_BYTES)
            };
            if moved {
                slot.room.notify_all();
                // A dead peer's queue is closed and drained in one
                // critical section (`close_peer`), so outside shutdown
                // only a live connection has anything to drain; what
                // shutdown drains toward a dead one is counted at exit.
                self.flush_peer(j);
            }
            if !pulled_all && under_bound {
                // A sender holds the port — pushing a record, or blocked
                // on this peer's queue bound with a full frame in hand
                // and released by the drain above. Come straight back for
                // what it leaves behind. (With the batch full, the
                // socket's writability brings the next pass.)
                self.again = true;
            }
        }
    }

    // -- inbound ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, from)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    self.inbound_seq += 1;
                    let conn = InConn {
                        stream,
                        from,
                        peer: None,
                        asm: StreamAssembler::new(),
                        hello: [0u8; stream::HANDSHAKE_LEN],
                        hello_got: 0,
                        seq: self.inbound_seq,
                    };
                    let idx = match self.inbound.iter().position(Option::is_none) {
                        Some(i) => {
                            self.inbound[i] = Some(conn);
                            i
                        }
                        None => {
                            self.inbound.push(Some(conn));
                            self.inbound.len() - 1
                        }
                    };
                    if self
                        .shared
                        .poller
                        .register(fd, TOKEN_IN_BASE + idx as u64, Interest::READABLE)
                        .is_err()
                    {
                        self.inbound[idx] = None;
                        continue;
                    }
                    self.timers.push(
                        Instant::now() + HANDSHAKE_TIMEOUT,
                        TimerKind::HelloTimeout(idx, self.inbound_seq),
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drop_inbound(&mut self, idx: usize) {
        // Dropping the stream closes the fd, which deregisters it.
        self.inbound[idx] = None;
    }

    /// Readiness on inbound connection `idx`: finish the handshake if
    /// pending, then drain stream messages into the local queues — all but
    /// the table, which is learned.
    fn inbound_ready(&mut self, idx: usize) {
        let Some(conn) = self.inbound.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        // Handshake phase: read exactly the hello, never beyond.
        while conn.peer.is_none() {
            match conn.stream.read(&mut conn.hello[conn.hello_got..]) {
                Ok(0) => {
                    self.drop_inbound(idx);
                    return;
                }
                Ok(n) => {
                    conn.hello_got += n;
                    if conn.hello_got < stream::HANDSHAKE_LEN {
                        continue;
                    }
                    let n = self.shared.localities.len();
                    let (peer, port) = match stream::decode_handshake(&conn.hello) {
                        Ok((p, port)) if (p as usize) < n && p != self.shared.rank => (p, port),
                        // Stranger, bad hello, or impossible id: drop it
                        // before it touches any runtime state.
                        _ => {
                            self.drop_inbound(idx);
                            return;
                        }
                    };
                    conn.peer = Some(peer);
                    let from = SocketAddr::new(conn.from.ip(), port);
                    if !self.seen_in[peer as usize] {
                        self.seen_in[peer as usize] = true;
                        self.heard += 1;
                        self.learn(peer, from);
                        if self.shared.rank == 0 && self.heard == n - 1 {
                            self.send_table();
                        }
                        self.check_barrier();
                    }
                    return self.inbound_ready(idx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_inbound(idx);
                    return;
                }
            }
        }
        let peer = conn.peer.expect("handshaked above");
        let c = &self.shared.peer(peer).counters;
        let mut reads = 0;
        // What stops the reading: a table to learn, a stream that does not
        // parse (`Ok(None)`), or a lost connection.
        let stopped = 'conn: loop {
            // What is buffered first: messages read behind a table wait
            // in the assembler until it is learned.
            loop {
                match conn.asm.next_msg() {
                    Ok(Some((msg_kind::TABLE, table))) => break 'conn Ok(Some(table)),
                    Ok(Some((kind, body))) => {
                        c.msgs_recv.add(1);
                        self.shared.trace_stream_msg(
                            crate::trace::TraceEventKind::NetRecv,
                            kind,
                            &body,
                            peer,
                        );
                        self.shared.deliver_local(kind, body);
                    }
                    Ok(None) => break,
                    Err(_) => break 'conn Ok(None),
                }
            }
            if reads == READS_PER_PASS {
                return;
            }
            reads += 1;
            let n = match conn.stream.read(&mut self.read_chunk) {
                Ok(0) => break Err("connection closed"),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break Err("read failed"),
            };
            c.bytes_recv.add(n as u64);
            conn.asm.feed(&self.read_chunk[..n]);
        };
        let why = match stopped {
            Ok(Some(table)) if self.learn_table(peer, &table) => return self.inbound_ready(idx),
            // Desynchronized, by a bad prefix or a table that is not rank
            // 0's first: unrecoverable for a length-prefixed protocol.
            // Count it; the peer is lost like any other dropped connection.
            Ok(_) => {
                let own = self.shared.own();
                own.counters.count_death(FaultCause::Decode, 1);
                "stream desynchronized"
            }
            Err(why) => why,
        };
        self.drop_inbound(idx);
        // During shutdown the peer closing its sending half is the
        // cluster stopping, not a failure: keep flushing toward it.
        if !self.shared.shutting_down.load(Ordering::Acquire) {
            self.peer_lost(peer, why);
        }
    }

    // -- shutdown -----------------------------------------------------------

    /// Shutdown, on the caller's thread: stop a barrier that still
    /// waits, keep passing while useful flushing remains (up to
    /// [`SHUTDOWN_DRAIN`]), then count what never made it out. No runtime
    /// task: the scheduler may already be gone at teardown.
    pub(super) fn shut_down(mut self) {
        self.fail_bootstrap("tcp bootstrap aborted by shutdown".into());
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        self.timers.push(deadline, TimerKind::Drain);
        // Pull whatever was queued before the queues closed.
        self.pump_sends();
        while self.pending() && Instant::now() < deadline {
            self.pass(true);
        }
        for io in self.peers.iter_mut().flatten() {
            let leftovers = io.batch.drain_msgs();
            self.shared.count_deaths(&leftovers);
        }
    }

    /// Bytes still to write toward a live peer.
    fn pending(&self) -> bool {
        let live = self.peers.iter().flatten();
        live.filter(|io| matches!(io.conn, Conn::Up(_)))
            .any(|io| !(io.hello.is_empty() && io.batch.is_empty()))
    }

    /// Connect attempts made toward each peer, once this rank has its
    /// table (rank 0 from the start).
    #[cfg(test)]
    pub(super) fn attempts(&self) -> Option<Vec<u64>> {
        let seqs = self.peers.iter().flatten().map(|io| io.attempt_seq);
        self.addrs[self.shared.rank as usize].map(|_| seqs.collect())
    }
}
