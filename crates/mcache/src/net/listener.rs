//! Worker loops: sharded accept plus connection service, on either of
//! two event backends.
//!
//! - [`EventLoop::Epoll`](super::EventLoop) (Linux default): each
//!   worker owns one epoll instance holding its listener clones, the
//!   shared UDP socket, and every connection it accepted — readiness
//!   wakes exactly the owning worker, idle workers sleep in
//!   `epoll_wait`, and `EPOLLOUT` is armed only while a connection owes
//!   response bytes.
//! - [`EventLoop::Poll`](super::EventLoop) (portable fallback, and what
//!   PR 6 shipped): every round accepts, pumps every connection, and
//!   naps `idle_sleep_us` when nothing moved.
//!
//! Both backends drive the identical [`Connection`] state machine and
//! the identical accept/reap/backoff policies, so they are
//! byte-equivalent on the wire — the conformance suites run the same
//! scripts against each.

use std::net::{TcpListener, UdpSocket};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::conn::{Connection, Stream};
use super::udp::pump_udp;
use super::Shared;

/// Datagrams drained from the shared UDP socket per service round, so
/// one UDP burst cannot starve the stream connections.
const UDP_BATCH: usize = 64;

/// How long `accept` stands down after the process runs out of file
/// descriptors (EMFILE/ENFILE). Without the pause, a full fd table
/// turns the accept loop into a hot error spin: the listener stays
/// readable because the queue never drains.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Base `epoll_wait` timeout: long enough that an idle worker burns ~10
/// wakeups a second (the shutdown-flag poll), short enough that
/// shutdown and reaper sweeps stay responsive.
const BASE_WAIT_MS: i32 = 100;

/// The sockets one worker serves: its clones of the shared listeners
/// plus the shared UDP socket.
pub(crate) struct WorkerIo {
    pub(crate) tcp: TcpListener,
    #[cfg(unix)]
    pub(crate) unix: Option<UnixListener>,
    pub(crate) udp: Option<UdpSocket>,
}

/// One network worker. All cache traffic from this thread uses worker
/// slot `w`, keeping STM descriptors, stat shards and slab magazines
/// thread-private, whichever backend runs.
pub(crate) fn worker_loop(shared: Arc<Shared>, io: WorkerIo, w: usize) {
    match shared.cfg.event_loop {
        super::EventLoop::Epoll => {
            #[cfg(target_os = "linux")]
            match epoll_loop(&shared, io, w) {
                Ok(()) => return,
                // epoll instance creation failed (fd pressure at
                // startup): degrade to the portable loop.
                Err(io) => poll_loop(&shared, io, w),
            }
            #[cfg(not(target_os = "linux"))]
            poll_loop(&shared, io, w);
        }
        super::EventLoop::Poll => poll_loop(&shared, io, w),
    }
}

/// Accepts one stream off a listener, mapping the result into the
/// shared accept policy: `Ok(Some)` a connection, `Ok(None)` the queue
/// is drained, `Err(backoff)` an accept error was counted and the
/// caller should stand down for `ACCEPT_BACKOFF` when `backoff` is set
/// (fd exhaustion — the queue will NOT drain by itself).
fn accept_outcome<S>(
    shared: &Shared,
    res: std::io::Result<S>,
) -> Result<Option<S>, bool> {
    match res {
        Ok(s) => Ok(Some(s)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => {
            shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
            // EMFILE (24) / ENFILE (23): the process or system fd table
            // is full. Keep serving existing connections; retry the
            // accept after the backoff, by which time the reaper or
            // departing clients may have freed descriptors.
            Err(matches!(e.raw_os_error(), Some(23) | Some(24)))
        }
    }
}

/// Drains the TCP accept queue. Returns `(streams, busy)`;
/// `backoff_until` is armed on fd exhaustion.
fn drain_tcp_accepts(
    shared: &Shared,
    listener: &TcpListener,
    backoff_until: &mut Option<Instant>,
) -> (Vec<Stream>, bool) {
    let mut out = Vec::new();
    let mut busy = false;
    loop {
        match accept_outcome(shared, listener.accept()) {
            Ok(Some((stream, _peer))) => {
                busy = true;
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    out.push(Stream::Tcp(stream));
                }
            }
            Ok(None) => break,
            Err(fd_exhausted) => {
                if fd_exhausted {
                    *backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                }
                break;
            }
        }
    }
    (out, busy)
}

/// The Unix-domain twin of [`drain_tcp_accepts`].
#[cfg(unix)]
fn drain_unix_accepts(
    shared: &Shared,
    listener: &UnixListener,
    backoff_until: &mut Option<Instant>,
) -> (Vec<Stream>, bool) {
    let mut out = Vec::new();
    let mut busy = false;
    loop {
        match accept_outcome(shared, listener.accept()) {
            Ok(Some((stream, _peer))) => {
                busy = true;
                if stream.set_nonblocking(true).is_ok() {
                    out.push(Stream::Unix(stream));
                }
            }
            Ok(None) => break,
            Err(fd_exhausted) => {
                if fd_exhausted {
                    *backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                }
                break;
            }
        }
    }
    (out, busy)
}

/// Whether a backoff window is still holding accepts back; expired
/// windows are cleared.
fn backoff_active(backoff: &mut Option<Instant>, now: Instant) -> bool {
    match *backoff {
        Some(t) if now < t => true,
        Some(_) => {
            *backoff = None;
            false
        }
        None => false,
    }
}

/// Reaper sweep cadence for a given timeout: often enough that a
/// connection overstays by at most ~25%, never more than 10Hz.
fn sweep_interval(idle_timeout_ms: u64) -> Duration {
    Duration::from_millis((idle_timeout_ms / 4).clamp(10, 100))
}

// ---------------------------------------------------------------------
// Portable polling backend
// ---------------------------------------------------------------------

/// The PR 6 loop, generalized over transports: accept, pump every
/// connection, nap when idle. Kept as the portable fallback and as the
/// byte-equivalence reference for the epoll backend.
fn poll_loop(shared: &Arc<Shared>, io: WorkerIo, w: usize) {
    let mut conns: Vec<Connection> = Vec::new();
    let mut tcp_backoff: Option<Instant> = None;
    #[cfg(unix)]
    let mut unix_backoff: Option<Instant> = None;
    let mut last_sweep = Instant::now();
    let mut chunk = vec![0u8; shared.cfg.read_chunk];
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut busy = false;
        let now = Instant::now();
        // Drain the accept queues before polling: a burst of clients
        // should all land this round.
        if !backoff_active(&mut tcp_backoff, now) {
            let (streams, b) = drain_tcp_accepts(shared, &io.tcp, &mut tcp_backoff);
            busy |= b;
            for s in streams {
                shared.stats.curr_connections.fetch_add(1, Ordering::Relaxed);
                shared.stats.total_connections.fetch_add(1, Ordering::Relaxed);
                conns.push(Connection::new(s));
            }
        }
        #[cfg(unix)]
        if let Some(ul) = &io.unix {
            if !backoff_active(&mut unix_backoff, now) {
                let (streams, b) = drain_unix_accepts(shared, ul, &mut unix_backoff);
                busy |= b;
                for s in streams {
                    shared.stats.curr_connections.fetch_add(1, Ordering::Relaxed);
                    shared.stats.total_connections.fetch_add(1, Ordering::Relaxed);
                    conns.push(Connection::new(s));
                }
            }
        }
        if let Some(udp) = &io.udp {
            let (b, _drained) = pump_udp(udp, &shared.cache, w, shared, UDP_BATCH);
            busy |= b;
        }
        conns.retain_mut(|c| {
            let p = c.pump(&shared.cache, w, shared, &mut chunk);
            busy |= p.busy;
            if !p.keep {
                shared.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
            }
            p.keep
        });
        // Idle reaper: close connections with no traffic for the
        // configured window, so slow-loris partial frames cannot pin
        // connection slots forever.
        let timeout_ms = shared.cfg.idle_timeout_ms;
        if timeout_ms > 0 && last_sweep.elapsed() >= sweep_interval(timeout_ms) {
            last_sweep = Instant::now();
            let cutoff = Duration::from_millis(timeout_ms);
            conns.retain(|c| {
                if c.last_activity.elapsed() >= cutoff {
                    shared.stats.conn_timeouts.fetch_add(1, Ordering::Relaxed);
                    shared.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            });
        }
        if !busy {
            std::thread::sleep(Duration::from_micros(shared.cfg.idle_sleep_us));
        }
    }
    // Shutdown closes whatever is still connected.
    for _ in &conns {
        shared.stats.curr_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Epoll backend (Linux)
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::*;
    use crate::net::event::{Event, Poller};
    use std::os::unix::io::AsRawFd;

    /// Registration tokens. Connection slots use their index directly;
    /// the non-connection fds sit at the top of the token space.
    const TOKEN_TCP: u64 = u64::MAX;
    #[cfg(unix)]
    const TOKEN_UNIX: u64 = u64::MAX - 1;
    const TOKEN_UDP: u64 = u64::MAX - 2;

    struct EpollWorker<'a> {
        shared: &'a Arc<Shared>,
        w: usize,
        poller: Poller,
        /// Connection slots; the epoll token IS the slot index, so a
        /// readiness event routes straight to its connection.
        slots: Vec<Option<Connection>>,
        free: Vec<usize>,
        /// Slots owed a pump that no readiness edge will announce
        /// (capped reads, budget-capped dispatch, swallow tails). While
        /// non-empty, the wait timeout is zero.
        hot: Vec<usize>,
        /// The read buffer every pump on this worker reads into.
        chunk: Vec<u8>,
    }

    impl EpollWorker<'_> {
        fn push_hot(&mut self, slot: usize) {
            if let Some(c) = self.slots[slot].as_mut() {
                if !c.hot {
                    c.hot = true;
                    self.hot.push(slot);
                }
            }
        }

        /// Pumps one slot and applies the verdict: close, EPOLLOUT
        /// arm/disarm, or hot-list re-queue.
        fn pump_slot(&mut self, slot: usize) {
            let Some(c) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
                return; // closed earlier in this same event batch
            };
            let p = c.pump(&self.shared.cache, self.w, self.shared, &mut self.chunk);
            if !p.keep {
                self.close_slot(slot);
                return;
            }
            let c = self.slots[slot].as_mut().expect("kept connection");
            // The EPOLLOUT arm/disarm protocol: write interest exists
            // exactly while response bytes are pending, so a writable
            // idle socket never wakes the worker, and a parked
            // (backpressured) connection is guaranteed its wakeup —
            // parking implies the last write hit WouldBlock.
            let want_out = c.pending_out() > 0;
            if want_out != c.epollout_armed {
                let fd = c.raw_fd();
                if self.poller.modify(fd, slot as u64, want_out).is_ok() {
                    c.epollout_armed = want_out;
                }
            }
            if p.repump {
                self.push_hot(slot);
            }
        }

        fn close_slot(&mut self, slot: usize) {
            if let Some(c) = self.slots[slot].take() {
                self.poller.delete(c.raw_fd());
                self.shared
                    .stats
                    .curr_connections
                    .fetch_sub(1, Ordering::Relaxed);
                self.free.push(slot);
            }
        }

        /// Registers an accepted stream and gives it its first pump —
        /// bytes may already be waiting (and the first pump is what
        /// makes an accept-then-talk client's latency independent of
        /// the next readiness edge).
        fn adopt(&mut self, stream: Stream) {
            let conn = Connection::new(stream);
            let fd = conn.raw_fd();
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s] = Some(conn);
                    s
                }
                None => {
                    self.slots.push(Some(conn));
                    self.slots.len() - 1
                }
            };
            if self.poller.add(fd, slot as u64, false).is_err() {
                // Registration failed (fd pressure): drop the client.
                self.slots[slot] = None;
                self.free.push(slot);
                self.shared
                    .stats
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            self.shared
                .stats
                .curr_connections
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .stats
                .total_connections
                .fetch_add(1, Ordering::Relaxed);
            self.pump_slot(slot);
        }

        /// Idle-connection reaper sweep.
        fn reap(&mut self) {
            let cutoff = Duration::from_millis(self.shared.cfg.idle_timeout_ms);
            for slot in 0..self.slots.len() {
                let expired = self.slots[slot]
                    .as_ref()
                    .is_some_and(|c| c.last_activity.elapsed() >= cutoff);
                if expired {
                    self.shared
                        .stats
                        .conn_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_slot(slot);
                }
            }
        }
    }

    /// The readiness-driven worker loop. Returns the worker's sockets
    /// as `Err` if the epoll instance itself could not be created, so
    /// the caller can fall back to the polling loop.
    pub(super) fn epoll_loop(
        shared: &Arc<Shared>,
        io: WorkerIo,
        w: usize,
    ) -> Result<(), WorkerIo> {
        let Ok(poller) = Poller::new() else {
            return Err(io);
        };
        if poller.add(io.tcp.as_raw_fd(), TOKEN_TCP, false).is_err() {
            return Err(io);
        }
        #[cfg(unix)]
        if let Some(ul) = &io.unix {
            if poller.add(ul.as_raw_fd(), TOKEN_UNIX, false).is_err() {
                return Err(io);
            }
        }
        if let Some(us) = &io.udp {
            if poller.add(us.as_raw_fd(), TOKEN_UDP, false).is_err() {
                return Err(io);
            }
        }
        let mut worker = EpollWorker {
            shared,
            w,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            hot: Vec::new(),
            chunk: vec![0u8; shared.cfg.read_chunk],
        };
        let mut events: Vec<Event> = Vec::new();
        // Edge-carry flags: a capped UDP drain or an fd-exhaustion
        // backoff must re-run without a fresh kernel edge.
        let mut udp_pending = false;
        let mut tcp_backoff: Option<Instant> = None;
        let mut tcp_accept_owed = false;
        #[cfg(unix)]
        let mut unix_backoff: Option<Instant> = None;
        #[cfg(unix)]
        let mut unix_accept_owed = false;
        let idle_timeout_ms = shared.cfg.idle_timeout_ms;
        let mut last_sweep = Instant::now();

        while !shared.shutdown.load(Ordering::SeqCst) {
            // Wait: zero when carried work is owed, else bounded by the
            // shutdown poll, the reaper cadence, and any accept backoff.
            let mut timeout = BASE_WAIT_MS;
            if idle_timeout_ms > 0 {
                timeout = timeout.min(sweep_interval(idle_timeout_ms).as_millis() as i32);
            }
            if let Some(t) = tcp_backoff {
                let ms = t.saturating_duration_since(Instant::now()).as_millis() as i32;
                timeout = timeout.min(ms.max(1));
            }
            #[cfg(unix)]
            if let Some(t) = unix_backoff {
                let ms = t.saturating_duration_since(Instant::now()).as_millis() as i32;
                timeout = timeout.min(ms.max(1));
            }
            if !worker.hot.is_empty() || udp_pending {
                timeout = 0;
            }
            events.clear();
            if worker.poller.wait(&mut events, timeout).is_err() {
                // Transient wait failure: breathe, retry. (EINTR is
                // already absorbed by the poller.)
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            // Phase 1: last round's carried work. Taken first so a slot
            // that also shows up in this batch's events is pumped with
            // its flag already cleared (the event pump is then a no-op
            // WouldBlock read, not double work).
            for slot in std::mem::take(&mut worker.hot) {
                let owed = worker.slots[slot].as_mut().is_some_and(|c| {
                    let was = c.hot;
                    c.hot = false;
                    was
                });
                if owed {
                    worker.pump_slot(slot);
                }
            }

            // Phase 2: readiness events. Accept edges are deferred to
            // phase 3 so a slot freed here is safe to reuse there —
            // every stale same-batch event has been skipped by then.
            let now = Instant::now();
            tcp_accept_owed |= tcp_backoff.is_some() && !backoff_active(&mut tcp_backoff, now);
            #[cfg(unix)]
            {
                unix_accept_owed |=
                    unix_backoff.is_some() && !backoff_active(&mut unix_backoff, now);
            }
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_TCP => tcp_accept_owed = true,
                    #[cfg(unix)]
                    TOKEN_UNIX => unix_accept_owed = true,
                    TOKEN_UDP => udp_pending = true,
                    slot => {
                        let slot = slot as usize;
                        if ev.readable || ev.writable {
                            worker.pump_slot(slot);
                        }
                    }
                }
            }

            // Phase 3: accepts and the shared UDP socket.
            if tcp_accept_owed && tcp_backoff.is_none() {
                let (streams, _) = drain_tcp_accepts(shared, &io.tcp, &mut tcp_backoff);
                for s in streams {
                    worker.adopt(s);
                }
                // Backoff armed mid-drain: the queue still holds
                // connections no edge will re-announce; retry after
                // the pause.
                tcp_accept_owed = tcp_backoff.is_some();
            }
            #[cfg(unix)]
            if unix_accept_owed && unix_backoff.is_none() {
                if let Some(ul) = &io.unix {
                    let (streams, _) = drain_unix_accepts(shared, ul, &mut unix_backoff);
                    for s in streams {
                        worker.adopt(s);
                    }
                }
                unix_accept_owed = unix_backoff.is_some();
            }
            if udp_pending {
                if let Some(us) = &io.udp {
                    let (_, drained) = pump_udp(us, &shared.cache, w, shared, UDP_BATCH);
                    udp_pending = !drained;
                } else {
                    udp_pending = false;
                }
            }

            // Phase 4: reaper.
            if idle_timeout_ms > 0 && last_sweep.elapsed() >= sweep_interval(idle_timeout_ms) {
                last_sweep = Instant::now();
                worker.reap();
            }
        }
        // Shutdown closes whatever is still connected.
        for slot in 0..worker.slots.len() {
            worker.close_slot(slot);
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
use epoll_backend::epoll_loop;
