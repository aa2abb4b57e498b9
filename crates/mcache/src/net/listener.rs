//! The worker loop: sharded accept plus connection service on one
//! edge-triggered epoll instance per worker.
//!
//! Each worker's [`Poller`] holds its listener clones, the shared UDP
//! socket, and every connection it accepted, so readiness wakes exactly
//! the owning worker, idle workers sleep in `epoll_wait`, and `EPOLLOUT`
//! is armed only while a connection owes response bytes. Connections
//! run the [`Connection`] state machine; the worker applies its verdicts
//! (close, EPOLLOUT arm/disarm, repump) plus the accept backoff and the
//! idle reaper.

use std::io;
use std::net::{TcpListener, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::conn::{Connection, Stream};
use super::event::{Event, Poller};
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

/// Registration tokens. Connection slots use their index directly; the
/// UDP socket and the stream listeners sit at the top of the token
/// space (listener `i` of [`WorkerIo::accepts`] at `TOKEN_LISTENER - i`).
const TOKEN_UDP: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// A worker's clone of one shared stream listener.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One stream listener plus its accept state: whether a drain is owed
/// that no fresh kernel edge will announce, and the fd-exhaustion
/// backoff holding accepts back.
struct AcceptQueue {
    listener: Listener,
    owed: bool,
    backoff_until: Option<Instant>,
}

impl AcceptQueue {
    fn new(listener: Listener) -> AcceptQueue {
        AcceptQueue {
            listener,
            owed: false,
            backoff_until: None,
        }
    }

    fn raw_fd(&self) -> RawFd {
        match &self.listener {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    /// Clears an expired backoff and owes the drain it postponed.
    fn expire_backoff(&mut self, now: Instant) {
        if self.backoff_until.is_some_and(|t| now >= t) {
            self.backoff_until = None;
            self.owed = true;
        }
    }

    /// Drains the accept queue into nonblocking streams. Fd exhaustion
    /// arms the backoff and leaves the drain owed: the queue still holds
    /// connections no edge will re-announce.
    fn drain(&mut self, shared: &Shared) -> Vec<Stream> {
        let mut out = Vec::new();
        loop {
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(true).is_ok().then_some(Stream::Tcp(s))
                }),
                Listener::Unix(l) => l
                    .accept()
                    .map(|(s, _)| s.set_nonblocking(true).is_ok().then_some(Stream::Unix(s))),
            };
            match accepted {
                Ok(stream) => out.extend(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    // EMFILE (24) / ENFILE (23): the process or system fd
                    // table is full. Keep serving existing connections;
                    // retry the accept after the backoff, by which time
                    // the reaper or departing clients may have freed
                    // descriptors.
                    if matches!(e.raw_os_error(), Some(23 | 24)) {
                        self.backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                    break;
                }
            }
        }
        self.owed = self.backoff_until.is_some();
        out
    }
}

/// One worker's epoll instance with its clones of the shared sockets
/// registered. `Server::start` builds one per worker before spawning
/// any, so a registration failure is the error `start` returns.
pub(crate) struct WorkerIo {
    poller: Poller,
    /// The TCP listener, then the Unix-domain one when configured.
    accepts: Vec<AcceptQueue>,
    udp: Option<UdpSocket>,
}

impl WorkerIo {
    pub(crate) fn new(
        tcp: &TcpListener,
        unix: Option<&UnixListener>,
        udp: Option<&UdpSocket>,
    ) -> io::Result<WorkerIo> {
        let poller = Poller::new()?;
        let mut accepts = vec![AcceptQueue::new(Listener::Tcp(tcp.try_clone()?))];
        if let Some(l) = unix {
            accepts.push(AcceptQueue::new(Listener::Unix(l.try_clone()?)));
        }
        for (i, q) in accepts.iter().enumerate() {
            poller.add(q.raw_fd(), TOKEN_LISTENER - i as u64, false)?;
        }
        let udp = udp.map(UdpSocket::try_clone).transpose()?;
        if let Some(s) = &udp {
            poller.add(s.as_raw_fd(), TOKEN_UDP, false)?;
        }
        Ok(WorkerIo {
            poller,
            accepts,
            udp,
        })
    }
}

/// Reaper sweep cadence for a given timeout: often enough that a
/// connection overstays by at most ~25%, never more than 10Hz.
fn sweep_interval(idle_timeout_ms: u64) -> Duration {
    Duration::from_millis((idle_timeout_ms / 4).clamp(10, 100))
}

struct Worker<'a> {
    shared: &'a Shared,
    w: usize,
    poller: Poller,
    /// Connection slots; the epoll token IS the slot index, so a
    /// readiness event routes straight to its connection.
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots owed a pump that no readiness edge will announce (capped
    /// reads, budget-capped dispatch, swallow tails). While non-empty,
    /// the wait timeout is zero.
    hot: Vec<usize>,
    /// The read buffer every pump on this worker reads into.
    chunk: Vec<u8>,
}

impl Worker<'_> {
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
        // exactly while response bytes are pending, so a writable idle
        // socket never wakes the worker, and a parked (backpressured)
        // connection is guaranteed its wakeup — parking implies the last
        // write hit WouldBlock.
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

    /// Registers an accepted stream and gives it its first pump — bytes
    /// may already be waiting (and the first pump is what makes an
    /// accept-then-talk client's latency independent of the next
    /// readiness edge).
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

    /// Idle-connection reaper sweep: closes connections with no traffic
    /// for the configured window, so slow-loris partial frames cannot
    /// pin connection slots forever.
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

/// One network worker. All cache traffic from this thread uses worker
/// slot `w`, keeping STM descriptors, stat shards and slab magazines
/// thread-private.
pub(crate) fn worker_loop(shared: Arc<Shared>, io: WorkerIo, w: usize) {
    let WorkerIo {
        poller,
        mut accepts,
        udp,
    } = io;
    let mut worker = Worker {
        shared: &shared,
        w,
        poller,
        slots: Vec::new(),
        free: Vec::new(),
        hot: Vec::new(),
        chunk: vec![0u8; shared.cfg.read_chunk],
    };
    let mut events: Vec<Event> = Vec::new();
    // Edge carry: a capped UDP drain must re-run without a fresh edge.
    let mut udp_pending = false;
    let idle_timeout_ms = shared.cfg.idle_timeout_ms;
    let mut last_sweep = Instant::now();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // Wait: zero when carried work is owed, else bounded by the
        // shutdown poll, the reaper cadence, and any accept backoff.
        let mut timeout = BASE_WAIT_MS;
        if idle_timeout_ms > 0 {
            timeout = timeout.min(sweep_interval(idle_timeout_ms).as_millis() as i32);
        }
        for t in accepts.iter().filter_map(|q| q.backoff_until) {
            let ms = t.saturating_duration_since(Instant::now()).as_millis() as i32;
            timeout = timeout.min(ms.max(1));
        }
        if !worker.hot.is_empty() || udp_pending {
            timeout = 0;
        }
        events.clear();
        if worker.poller.wait(&mut events, timeout).is_err() {
            // Transient wait failure: breathe, retry. (EINTR is already
            // absorbed by the poller.)
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        // Phase 1: last round's carried work. Taken first so a slot that
        // also shows up in this batch's events is pumped with its flag
        // already cleared (the event pump is then a no-op WouldBlock
        // read, not double work).
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

        // Phase 2: readiness events. Accept edges are deferred to phase
        // 3 so a slot freed here is safe to reuse there — every stale
        // same-batch event has been skipped by then.
        let now = Instant::now();
        for q in &mut accepts {
            q.expire_backoff(now);
        }
        for ev in &events {
            match ev.token {
                TOKEN_UDP => udp_pending = true,
                t if TOKEN_LISTENER - t < accepts.len() as u64 => {
                    accepts[(TOKEN_LISTENER - t) as usize].owed = true;
                }
                slot => {
                    if ev.readable || ev.writable {
                        worker.pump_slot(slot as usize);
                    }
                }
            }
        }

        // Phase 3: accepts and the shared UDP socket.
        for q in &mut accepts {
            if q.owed && q.backoff_until.is_none() {
                for s in q.drain(&shared) {
                    worker.adopt(s);
                }
            }
        }
        if let Some(us) = udp.as_ref().filter(|_| udp_pending) {
            udp_pending = !pump_udp(us, &shared.cache, w, &shared, UDP_BATCH);
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
}
