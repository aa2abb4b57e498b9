//! The untraced run: set-up, warm-up, then alternating fixed-rate and
//! closed-loop blocks against a real `mcached` over loopback TCP.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bench::wire::WireConn;
use workload::Workload;

use crate::check::{check_reply, read_reply, roundtrip, Reply, Tally};
use crate::server::{self, HostCpu, ProcSample, Server, TempDir};
use crate::spec::{encode, preload_frames, Frame, Frames, Kind, Proto, Spec, CONNS};
use crate::{median, percentile, Ctx, Report};

/// Set-ups per run; `setup_s` is a median over them. A durable set-up
/// writes and replays a ~50 MB log, so it runs fewer.
const SETUPS: usize = 5;
const DURABLE_SETUPS: usize = 3;
/// Untimed traffic before the measured phases: a fresh server runs
/// slower for its first seconds.
const WARMUP: Duration = Duration::from_secs(3);
/// A connection with no reply for this long is declared hung; the server
/// is killed and its in-flight frames count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Rounds of one fixed-rate block and one closed-loop block each.
const ROUNDS: usize = 8;
/// Server counters whose growth is a failure.
pub const ERROR_COUNTERS: &[&str] = &["frame_errors", "request_panics", "log_write_errors"];

/// A server ready for load, with the log directory it owns.
pub struct Live {
    pub srv: Server,
    pub log: Option<TempDir>,
}

/// Starts the workload's server and serves the preload. A durable server
/// is then shut down gracefully and restarted on its log, and every
/// recovered key is read back and checked. Returns the server, the
/// set-up time (spawn until the preload is served, or until the replay
/// is done), and the checks made.
pub fn setup(
    ctx: &Ctx,
    spec: &Spec,
    wl: &Workload,
    round: usize,
    notes: &mut Vec<String>,
) -> io::Result<(Live, f64, Tally)> {
    let log = match spec.durable {
        true => Some(TempDir::new(ctx.tmp_root.join(format!("log-{round}")))?),
        false => None,
    };
    let args = spec.server_args(log.as_ref().map(|d| d.path()));
    let t0 = Instant::now();
    let srv = Server::spawn(&ctx.mcached, &args)?;
    let mut tally = preload(&srv, spec, wl)?;
    let srv = if spec.durable {
        let counters = srv.shutdown()?;
        for c in ERROR_COUNTERS {
            tally.failed += counters.get(*c).copied().unwrap_or(0);
        }
        Server::spawn(&ctx.mcached, &args)?
    } else {
        srv
    };
    let secs = t0.elapsed().as_secs_f64();
    if let Some(dir) = &log {
        let (items, torn) = srv.recovered.unwrap_or((0, u64::MAX));
        let bytes = server::dir_bytes(dir.path());
        let mut conn = WireConn::connect(&srv.addr)?;
        let check = verify_recovered(&mut conn, spec, wl)?;
        let live = server::stats(&mut conn)?["curr_items"];
        notes.push(format!(
            "setup {round}: replayed {bytes} log bytes, recovered_items={items} \
             torn_records_dropped={torn} readable={} curr_items={live}",
            check.hits
        ));
        tally.add(check);
        // A torn record after a graceful stop, or a recovered item that
        // reads back differently from the oracle, fails the run.
        if torn != 0 || check.hits != live {
            tally.failed += 1;
        }
    }
    Ok((Live { srv, log }, secs, tally))
}

fn preload(srv: &Server, spec: &Spec, wl: &Workload) -> io::Result<Tally> {
    let mut conn = WireConn::connect(&srv.addr)?;
    let mut t = Tally::default();
    for f in preload_frames(spec) {
        let bytes = encode(wl, &f, Proto::Ascii);
        t.add(roundtrip(&mut conn, wl, &f, Proto::Ascii, &bytes, false)?);
    }
    Ok(t)
}

/// Reads every key back; each hit must equal the oracle's bytes.
fn verify_recovered(conn: &mut WireConn, spec: &Spec, wl: &Workload) -> io::Result<Tally> {
    let mut t = Tally::default();
    for lo in (0..spec.keys).step_by(100) {
        let f = Frame {
            kind: Kind::Get,
            keys: (lo..(lo + 100).min(spec.keys)).collect(),
        };
        let bytes = encode(wl, &f, Proto::Ascii);
        t.add(roundtrip(conn, wl, &f, Proto::Ascii, &bytes, true)?);
    }
    Ok(t)
}

/// What one connection saw in one phase.
#[derive(Default)]
struct ConnOut {
    tally: Tally,
    /// Latency from the due time to the whole reply, µs.
    get_us: Vec<f64>,
    set_us: Vec<f64>,
    /// How late the generator sent each frame, µs.
    late_us: Vec<f64>,
    end: Option<Instant>,
}

struct Client {
    conn: Option<WireConn>,
    frames: Frames,
    proto: Proto,
}

impl Client {
    /// Reads the reply to `frame`; `None` if it was lost, which retires
    /// the connection.
    fn receive(&mut self, frame: &Frame) -> Option<Reply> {
        let got = read_reply(self.conn.as_mut()?, frame, self.proto);
        if got.is_err() {
            self.conn = None;
        }
        got.ok()
    }

    fn send(&mut self, bytes: &[u8]) {
        if let Some(conn) = self.conn.as_mut() {
            if conn.send(bytes).is_err() {
                self.conn = None;
            }
        }
    }
}

/// Checks a reply; a lost one fails the whole frame.
fn settle(wl: &Workload, frame: &Frame, got: Option<Reply>, allow_miss: bool) -> Tally {
    match got {
        Some(r) => check_reply(wl, frame, &r, allow_miss),
        None => Tally::lost(frame),
    }
}

/// A load thread's heartbeat, read by the hung-reply watchdog.
#[derive(Clone, Copy)]
struct Beat<'a> {
    /// Milliseconds since `epoch` of the last checked reply.
    last_ms: &'a AtomicU64,
    epoch: Instant,
}

impl Beat<'_> {
    fn tick(&self, now: Instant) {
        self.last_ms.store(
            now.duration_since(self.epoch).as_millis() as u64,
            Ordering::Relaxed,
        );
    }
}

/// Closed loop: one thread keeps one frame in flight on every connection,
/// sending on all of them before it reads any reply.
fn drive_closed(
    cs: &mut [Client],
    wl: &Workload,
    spec: &Spec,
    until: Instant,
    beat: Beat,
) -> Vec<ConnOut> {
    let allow_miss = !spec.no_evict;
    let mut outs: Vec<ConnOut> = cs.iter().map(|_| ConnOut::default()).collect();
    while cs.iter().any(|c| c.conn.is_some()) {
        let frames: Vec<Frame> = cs
            .iter_mut()
            .map(|c| c.frames.next().expect("frame streams are unbounded"))
            .collect();
        for (c, f) in cs.iter_mut().zip(&frames) {
            let bytes = encode(wl, f, c.proto);
            c.send(&bytes);
        }
        for ((c, f), out) in cs.iter_mut().zip(&frames).zip(&mut outs) {
            out.tally.add(settle(wl, f, c.receive(f), allow_miss));
        }
        let done = Instant::now();
        beat.tick(done);
        for o in &mut outs {
            o.end = Some(done);
        }
        if done >= until {
            break;
        }
    }
    outs
}

/// Fixed rate: frame `i` of this connection falls due at
/// `start + i * interval`; latency is timed from the due time.
fn drive_fixed(
    c: &mut Client,
    wl: &Workload,
    spec: &Spec,
    (start, interval): (Instant, Duration),
    until: Instant,
    beat: Beat,
) -> ConnOut {
    set_timer_slack_ns(1);
    let allow_miss = !spec.no_evict;
    let mut out = ConnOut::default();
    for i in 0u32.. {
        let due = start + interval * i;
        if due >= until || c.conn.is_none() {
            break;
        }
        let frame = c.frames.next().expect("frame streams are unbounded");
        let bytes = encode(wl, &frame, c.proto);
        sleep_until(due);
        let sent = Instant::now();
        c.send(&bytes);
        let got = c.receive(&frame);
        let done = Instant::now();
        out.tally.add(settle(wl, &frame, got, allow_miss));
        beat.tick(done);
        let lat = done.duration_since(due).as_secs_f64() * 1e6;
        match frame.kind {
            Kind::Get => out.get_us.push(lat),
            Kind::Set => out.set_us.push(lat),
        }
        out.late_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
    }
    out
}

/// Sleeps to within a few µs of `t`, then spins the rest.
fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(15);
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Narrows this thread's timer slack so fixed-rate sleeps end on time.
fn set_timer_slack_ns(ns: u64) {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes its value by integer and touches
    // no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

/// How a phase paces its frames.
#[derive(Clone, Copy)]
enum Pace {
    Closed,
    /// `interval` between one connection's frames; connection `c` starts
    /// `c / CONNS` of an interval after `start`.
    Fixed {
        start: Instant,
        interval: Duration,
    },
}

/// Runs one phase on every client; kills the server if a reply hangs.
fn phase(
    clients: &mut [Client],
    wl: &Workload,
    spec: &Spec,
    pace: Pace,
    secs: f64,
    pid: u32,
) -> Vec<ConnOut> {
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(secs);
    let progress: Vec<AtomicU64> = clients.iter().map(|_| AtomicU64::new(0)).collect();
    let killed = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = match pace {
            Pace::Closed => {
                let beat = Beat {
                    last_ms: &progress[0],
                    epoch,
                };
                vec![s.spawn(move || drive_closed(clients, wl, spec, until, beat))]
            }
            Pace::Fixed { start, interval } => clients
                .iter_mut()
                .zip(&progress)
                .enumerate()
                .map(|(i, (c, p))| {
                    let start = start + interval * i as u32 / CONNS as u32;
                    let beat = Beat { last_ms: p, epoch };
                    s.spawn(move || vec![drive_fixed(c, wl, spec, (start, interval), until, beat)])
                })
                .collect(),
        };
        let watched = &progress[..handles.len()];
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(20));
            let now_ms = epoch.elapsed().as_millis() as u64;
            let stale = watched.iter().any(|p| {
                now_ms.saturating_sub(p.load(Ordering::Relaxed)) > REPLY_TIMEOUT.as_millis() as u64
            });
            if stale && !killed.swap(true, Ordering::Relaxed) {
                eprintln!("mcbench: no reply for {REPLY_TIMEOUT:?}; killing the server");
                server::kill_pid(pid);
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn sum_tally(outs: &[ConnOut]) -> Tally {
    let mut t = Tally::default();
    for o in outs {
        t.add(o.tally);
    }
    t
}

/// Sorted samples of one kind across a block's connections.
fn block_samples(outs: &[ConnOut], pick: impl Fn(&ConnOut) -> &Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = outs.iter().flat_map(|o| pick(o).iter().copied()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// What one fixed-rate block measured.
struct FixedBlock {
    steal: f64,
    get: Vec<f64>,
    set: Vec<f64>,
    late: Vec<f64>,
    cpu_us_per_op: f64,
}

/// The blocks during which the hypervisor stole the least CPU: the
/// calmer half (rounded up) of `steal`, as indices. Ties go to the later
/// block, which ran on a longer-warmed server.
fn calm(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(b.cmp(&a)));
    idx.truncate(steal.len().div_ceil(2));
    idx
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx, spec: &Spec, wl: &Workload) -> io::Result<Report> {
    let mut rep = Report::default();
    let (mut setups, mut setup_steal) = (Vec::new(), Vec::new());
    let mut live = None;
    for round in 0..if spec.durable { DURABLE_SETUPS } else { SETUPS } {
        let h0 = HostCpu::read()?;
        let (l, secs, t) = setup(ctx, spec, wl, round, &mut rep.notes)?;
        setup_steal.push(HostCpu::read()?.steal_since(&h0));
        rep.tally.add(t);
        setups.push(secs);
        if let Some(prev) = live.replace(l) {
            retire(prev)?;
        }
    }
    let live = live.expect("at least one set-up");
    let pid = live.srv.pid;

    let mut clients: Vec<Client> = (0..CONNS)
        .map(|c| {
            Ok(Client {
                conn: Some(WireConn::connect(&live.srv.addr)?),
                frames: Frames::new(wl, spec, c),
                proto: spec.proto(c),
            })
        })
        .collect::<io::Result<_>>()?;
    let mut ctl = WireConn::connect(&live.srv.addr)?;
    let stats0 = server::stats(&mut ctl)?;

    let warm = phase(
        &mut clients,
        wl,
        spec,
        Pace::Closed,
        WARMUP.as_secs_f64(),
        pid,
    );
    rep.tally.add(sum_tally(&warm));

    // The measured time alternates fixed-rate and closed-loop blocks. Each
    // metric is the median over the calmer half of its blocks, ranked by
    // the CPU the hypervisor stole during them: a noisy neighbour on the
    // shared host then moves the figure only when it lasts most of a run.
    let round = ctx.seconds / ROUNDS as f64;
    let (closed_block, fixed_block) =
        (round * spec.closed_share, round * (1.0 - spec.closed_share));
    let per_conn = Duration::from_secs_f64(CONNS as f64 / spec.fixed_rate);
    let (mut fixed, mut closed) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let start = Instant::now() + Duration::from_millis(5);
        let (h0, p0) = (HostCpu::read()?, ProcSample::read(pid)?);
        let pace = Pace::Fixed {
            start,
            interval: per_conn,
        };
        let outs = phase(&mut clients, wl, spec, pace, fixed_block, pid);
        let (h1, p1) = (HostCpu::read()?, ProcSample::read(pid)?);
        let t = sum_tally(&outs);
        rep.tally.add(t);
        fixed.push(FixedBlock {
            steal: h1.steal_since(&h0),
            get: block_samples(&outs, |o| &o.get_us),
            set: block_samples(&outs, |o| &o.set_us),
            late: block_samples(&outs, |o| &o.late_us),
            cpu_us_per_op: (p1.cpu_us - p0.cpu_us) / t.ops.max(1) as f64,
        });

        let t0 = Instant::now();
        let outs = phase(&mut clients, wl, spec, Pace::Closed, closed_block, pid);
        let secs = outs
            .iter()
            .filter_map(|o| o.end)
            .max()
            .map_or(closed_block, |e| e.duration_since(t0).as_secs_f64());
        let t = sum_tally(&outs);
        rep.tally.add(t);
        closed.push((
            HostCpu::read()?.steal_since(&h1),
            (t.ops - t.failed) as f64 / secs,
        ));
    }

    let stats1 = server::stats(&mut ctl)?;
    let rss = server::peak_rss_mb(pid)?;
    for c in ERROR_COUNTERS {
        rep.tally.failed += server::delta(&stats0, &stats1, c);
    }
    check_evictions(spec, &stats1, &mut rep);

    let calm_fixed: Vec<&FixedBlock> = calm(&fixed.iter().map(|b| b.steal).collect::<Vec<_>>())
        .into_iter()
        .map(|i| &fixed[i])
        .collect();
    let calm_rates: Vec<f64> = calm(&closed.iter().map(|c| c.0).collect::<Vec<_>>())
        .into_iter()
        .map(|i| closed[i].1)
        .collect();
    let over_calm =
        |f: &dyn Fn(&FixedBlock) -> f64| median(calm_fixed.iter().map(|b| f(b)).collect());
    let late: Vec<f64> = fixed.iter().flat_map(|b| b.late.iter().copied()).collect();
    let pct = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.1}", 100.0 * x))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.notes.push(format!(
        "{ROUNDS} rounds of {fixed_block:.2}s fixed-rate + {closed_block:.2}s closed-loop blocks; \
         host CPU steal % per fixed block [{}], per closed block [{}]; metrics are medians over the calmer half",
        pct(&fixed.iter().map(|b| b.steal).collect::<Vec<_>>()),
        pct(&closed.iter().map(|c| c.0).collect::<Vec<_>>()),
    ));
    rep.notes.push(format!(
        "closed-loop ops/s per block {:?}; fixed-rate server us/op per block {:?}",
        closed.iter().map(|c| c.1.round()).collect::<Vec<_>>(),
        fixed
            .iter()
            .map(|b| (b.cpu_us_per_op * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));
    rep.notes.push(format!(
        "fixed rate: {} frames/s target, {} GET and {} SET samples; generator lateness max {:.1}us; \
         set-ups {setups:.3?}s (host CPU steal % {})",
        spec.fixed_rate,
        fixed.iter().map(|b| b.get.len()).sum::<usize>(),
        fixed.iter().map(|b| b.set.len()).sum::<usize>(),
        late.iter().copied().fold(0.0, f64::max),
        pct(&setup_steal),
    ));
    if let Some(dir) = &live.log {
        rep.notes.push(format!(
            "log: {} bytes on disk at the end; server storage writes {} bytes",
            server::dir_bytes(dir.path()),
            server::storage_write_bytes(pid).map_or("unreadable".into(), |b| b.to_string()),
        ));
    }

    let calm_setups = calm(&setup_steal).into_iter().map(|i| setups[i]).collect();
    rep.metric("setup_s", median(calm_setups), "s");
    rep.ungated("ops_per_s", median(calm_rates), "1/s");
    rep.ungated("get_p50_us", over_calm(&|b| percentile(&b.get, 0.5)), "us");
    rep.ungated("get_p99_us", over_calm(&|b| percentile(&b.get, 0.99)), "us");
    rep.ungated("set_p50_us", over_calm(&|b| percentile(&b.set, 0.5)), "us");
    rep.ungated("set_p99_us", over_calm(&|b| percentile(&b.set, 0.99)), "us");
    rep.metric(
        "server_cpu_us_per_op",
        over_calm(&|b| b.cpu_us_per_op),
        "us",
    );
    rep.metric("server_rss_mb", rss, "MiB");

    drop(clients);
    drop(ctl);
    retire(live)?;
    Ok(rep)
}

/// A no-evict workload that evicted no longer measures what it names.
pub fn check_evictions(spec: &Spec, stats: &HashMap<String, u64>, rep: &mut Report) {
    let ev = stats.get("evictions").copied().unwrap_or(0);
    rep.notes.push(format!("server evictions: {ev}"));
    if spec.no_evict && ev > 0 {
        rep.invalid.push(format!(
            "{} evicted {ev} items; the keyspace must fit",
            spec.name
        ));
    }
}

/// Stops a server gracefully and drops its log directory.
pub fn retire(live: Live) -> io::Result<()> {
    let Live { srv, log } = live;
    srv.shutdown()?;
    drop(log);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::calm;

    #[test]
    fn calm_picks_the_least_stolen_half_and_prefers_later_blocks() {
        assert_eq!(calm(&[0.3, 0.0, 0.1, 0.0, 0.2]), vec![3, 1, 2]);
        assert_eq!(calm(&[0.0; 4]), vec![3, 2]);
    }
}
