//! The traced run: the same requests replayed single-threaded through
//! each layer in turn, one rung per layer, with a span around every call.
//!
//! 1. `tm`: a bare transaction of the request's read/write shape;
//! 2. `cache`: the `McCache` call;
//! 3. `proto`: `scan_frame` plus execute on the exact request bytes;
//! 4. `net`: a loopback round trip to `mcached`;
//! 5. `dur` (durable workload only): `Record::encode`, `DurLog::append`,
//!    and `dur::recover` of the log they wrote.
//!
//! A layer's self time is its rung's time minus the rung below it, per
//! request. Spans are kept in memory and written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use bench::wire::WireConn;
use mcache::dur::{self, DurLog, Record};
use mcache::proto::{self, binary, FrameScan};
use mcache::{
    Branch, DurFsync, GetValue, McCache, McConfig, Stage, StoreMode, StoreOp, StoreStatus,
};
use testkit::alloc::thread_allocs;
use tm::{TBytes, TmRuntime, Transaction};
use workload::Workload;

use crate::check::{check_ascii_bytes, check_binary, check_get, check_reply, read_reply, Tally};
use crate::load::{self, ERROR_COUNTERS};
use crate::server::{self, ProcSample};
use crate::spec::{encode, preload_frames, Frame, Frames, Kind, Proto, Spec, CONNS};
use crate::{median, Ctx, Report};

/// Frames replayed per second of `--seconds`.
const FRAMES_PER_SECOND: f64 = 1500.0;
/// Transactional byte buffers the `tm` rung reads and writes (keys map
/// onto them by index), enough to keep the working set out of L1.
const TM_SLOTS: usize = 1024;

/// One span: a call into a layer, on behalf of one request.
struct Span {
    req: u32,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span log.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, req: u32, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        (s.end_ns - s.start_ns) as f64
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\treq\tlayer\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{parent}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One replayed request.
struct Req {
    conn: usize,
    proto: Proto,
    frame: Frame,
    bytes: Vec<u8>,
}

/// Per-request rung times, ns.
struct Rungs {
    tm: Vec<f64>,
    cache: Vec<f64>,
    proto: Vec<f64>,
    net: Vec<f64>,
}

pub fn run(ctx: &Ctx, spec: &Spec, wl: &Workload, calib_ns: f64) -> io::Result<Report> {
    let mut rep = Report::default();
    let n = ((ctx.seconds * FRAMES_PER_SECOND) as usize).max(200);
    let mut gens: Vec<Frames> = (0..CONNS).map(|c| Frames::new(wl, spec, c)).collect();
    let reqs: Vec<Req> = (0..n)
        .map(|i| {
            let conn = i % CONNS;
            let frame = gens[conn].next().expect("frame streams are unbounded");
            let proto = spec.proto(conn);
            let bytes = encode(wl, &frame, proto);
            Req {
                conn,
                proto,
                frame,
                bytes,
            }
        })
        .collect();
    let ops: u64 = reqs.iter().map(|r| r.frame.keys.len() as u64).sum();
    let allow_miss = !spec.no_evict;
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(n * 8),
    };

    let (live, _, t) = load::setup(ctx, spec, wl, 0, &mut rep.notes)?;
    rep.tally.add(t);

    let handle = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: CONNS,
        ..Default::default()
    });
    let cache: &McCache = &handle;
    for f in preload_frames(spec) {
        let values: Vec<Vec<u8>> = f.keys.iter().map(|&k| wl.value(k)).collect();
        let st = cache.store_batch(0, &store_ops(wl, &f, &values));
        rep.tally.failed += st.iter().filter(|s| **s != StoreStatus::Stored).count() as u64;
    }

    // One untimed pass leaves the cache in the state every rung then
    // sees: items replaced, LRU and hash table warm.
    for q in &reqs {
        rep.tally
            .add(cache_checked(cache, 0, wl, &q.frame, allow_miss));
    }

    let mut r = Rungs {
        tm: Vec::new(),
        cache: Vec::new(),
        proto: Vec::new(),
        net: Vec::new(),
    };

    // Rung 1: tm.
    let (alg, cm) = cache.tm_config();
    let rt = TmRuntime::builder()
        .algorithm(alg)
        .contention_manager(cm)
        .build();
    let slots: Vec<TBytes> = (0..TM_SLOTS)
        .map(|_| TBytes::zeroed(spec.value_max))
        .collect();
    let mut buf = vec![0u8; spec.value_max];
    for (i, q) in reqs.iter().enumerate() {
        let values = frame_values(wl, &q.frame);
        let id = tr.open(i as u32, "tm", None);
        match q.frame.kind {
            Kind::Get => rt.atomic_ro(|tx| {
                for &k in &q.frame.keys {
                    tx.read_bytes(&slots[k % TM_SLOTS], 0, &mut buf[..wl.value_len(k)])?;
                }
                Ok(())
            }),
            Kind::Set => rt.atomic(|tx| {
                for (&k, v) in q.frame.keys.iter().zip(&values) {
                    tx.write_bytes(&slots[k % TM_SLOTS], 0, v)?;
                }
                Ok(())
            }),
        }
        r.tm.push(tr.close(id));
    }

    // Rung 2: cache.
    let mut cache_tally = Tally::default();
    let mut cache_allocs = 0u64;
    let (mut get_ns, mut set_ns) = (Vec::new(), Vec::new());
    let ev0 = cache.stats().global.evictions;
    for (i, q) in reqs.iter().enumerate() {
        let values = frame_values(wl, &q.frame);
        let a0 = thread_allocs();
        let id = tr.open(i as u32, "cache", None);
        let out = cache_call(cache, 0, wl, &q.frame, &values);
        let d = tr.close(id);
        cache_allocs += thread_allocs() - a0;
        cache_tally.add(check_cache(wl, &q.frame, &out, allow_miss));
        r.cache.push(d);
        match q.frame.kind {
            Kind::Get => get_ns.push(d),
            Kind::Set => set_ns.push(d),
        }
    }
    let evictions = cache.stats().global.evictions - ev0;
    rep.tally.add(cache_tally);

    // Rung 3: proto.
    let (mut scan_ns, mut proto_allocs, mut resp_bytes) = (Vec::new(), 0u64, 0u64);
    for (i, q) in reqs.iter().enumerate() {
        let a0 = thread_allocs();
        let id = tr.open(i as u32, "proto", None);
        let sid = tr.open(i as u32, "proto.scan", Some(id));
        let frames = scan_all(&q.bytes);
        scan_ns.push(tr.close(sid));
        let eid = tr.open(i as u32, "proto.execute", Some(id));
        let (reply, resps) = match q.proto {
            Proto::Ascii => (proto::execute_ascii_run(cache, 0, &frames), Vec::new()),
            Proto::Binary => {
                let parsed: Vec<binary::Request> = frames
                    .iter()
                    .filter_map(|f| binary::parse_frame(f).ok())
                    .collect();
                let resps = binary::execute_pipeline(cache, 0, &parsed);
                let mut out = Vec::new();
                for resp in &resps {
                    out.extend_from_slice(&resp.encode());
                }
                (out, resps)
            }
        };
        tr.close(eid);
        r.proto.push(tr.close(id));
        proto_allocs += thread_allocs() - a0;
        resp_bytes += reply.len() as u64;
        rep.tally.add(match q.proto {
            Proto::Ascii => check_ascii_bytes(wl, &q.frame, &reply, allow_miss),
            Proto::Binary => check_binary(wl, &q.frame, &resps, allow_miss),
        });
    }

    // The TM counters come from the two workers' streams replayed
    // concurrently through the cache, as the server's two workers run them.
    let tm0 = cache.tm_stats();
    let conc_ops: u64 = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS)
            .map(|c| {
                let reqs = &reqs;
                s.spawn(move || {
                    let mut t = Tally::default();
                    for q in reqs.iter().filter(|q| q.conn == c) {
                        t.add(cache_checked(cache, c, wl, &q.frame, allow_miss));
                    }
                    t
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| {
                let t = h.join().expect("replay thread panicked");
                rep.tally.add(t);
                t.ops
            })
            .sum()
    });
    let tm = cache.tm_stats().since(&tm0);

    // Rung 4: net. Two passes; each traces every other request and times
    // the rest untraced, so the tracing overhead is read off requests
    // interleaved in time.
    let pid = live.srv.pid;
    let mut conns: Vec<WireConn> = (0..CONNS)
        .map(|_| WireConn::connect(&live.srv.addr))
        .collect::<io::Result<_>>()?;
    let mut ctl = WireConn::connect(&live.srv.addr)?;
    let st0 = server::stats(&mut ctl)?;
    let p0 = ProcSample::read(pid)?;
    r.net = vec![0.0; n];
    let mut plain = vec![0.0; n];
    for pass in 0..2 {
        for (i, q) in reqs.iter().enumerate() {
            let traced = i % 2 == pass;
            let conn = &mut conns[q.conn];
            let t0 = Instant::now();
            let id = traced.then(|| tr.open(i as u32, "net", None));
            conn.send(&q.bytes)?;
            let got = read_reply(conn, &q.frame, q.proto)?;
            match id {
                Some(id) => r.net[i] = tr.close(id),
                None => plain[i] = t0.elapsed().as_nanos() as f64,
            }
            rep.tally.add(check_reply(wl, &q.frame, &got, allow_miss));
        }
    }
    let p1 = ProcSample::read(pid)?;
    let st1 = server::stats(&mut ctl)?;
    for c in ERROR_COUNTERS {
        rep.tally.failed += server::delta(&st0, &st1, c);
    }
    load::check_evictions(spec, &st1, &mut rep);
    const NET_PASSES: u64 = 2;
    let net_ops = NET_PASSES * ops;
    let gets = |v: &[f64]| -> Vec<f64> {
        reqs.iter()
            .zip(v)
            .filter(|(q, _)| q.frame.kind == Kind::Get)
            .map(|(_, d)| *d)
            .collect()
    };
    let plain_p50 = median(gets(&plain));
    let traced_p50 = median(gets(&r.net));
    let user_bytes = NET_PASSES
        * reqs
            .iter()
            .filter(|q| q.frame.kind == Kind::Set)
            .flat_map(|q| q.frame.keys.iter())
            .map(|&k| (wl.key(k).len() + wl.value_len(k)) as u64)
            .sum::<u64>();

    // Rung 5: dur.
    let mut dur_m = DurRung::default();
    if spec.durable {
        dur_m = dur_rung(ctx, wl, &reqs, &mut tr)?;
    }

    drop(conns);
    drop(ctl);
    load::retire(live)?;
    drop(handle);
    std::fs::create_dir_all(&ctx.out_dir)?;
    let spans_path = ctx
        .out_dir
        .join(format!("spans-{}-seed{}.tsv", spec.name, ctx.seed));
    tr.write(&spans_path)?;
    rep.notes.push(format!(
        "ladder: {n} frames ({ops} ops); {} spans written to {}",
        tr.spans.len(),
        spans_path.display()
    ));
    rep.notes.push(format!(
        "tracing overhead: loopback GET p50 {:.2}us untraced vs {:.2}us traced",
        plain_p50 / 1e3,
        traced_p50 / 1e3
    ));
    rep.notes
        .push(format!("tm over {conc_ops} concurrent ops: {tm}"));
    if tm.in_flight_switch + tm.start_serial > 0 {
        rep.invalid
            .push("it-oncommit serialized a transaction for an unsafe operation".into());
    }

    let self_ns = |hi: &[f64], lo: &[f64]| median(hi.iter().zip(lo).map(|(a, b)| a - b).collect());
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let kop = |num: u64, den: u64| 1000.0 * per(num as f64, den);
    let cpu_sys = p1.sys_us - p0.sys_us;
    let delta = |k: &str| server::delta(&st0, &st1, k);

    rep.metric("net.self_us", self_ns(&r.net, &r.proto) / 1e3, "us");
    rep.metric("net.sys_us_per_op", per(cpu_sys, net_ops), "us");
    rep.metric(
        "net.wakeups_per_op",
        per((p1.vol_switches - p0.vol_switches) as f64, net_ops),
        "count",
    );
    rep.metric(
        "net.bytes_in_per_op",
        per(delta("bytes_read") as f64, net_ops),
        "B",
    );
    rep.metric(
        "net.bytes_out_per_op",
        per(delta("bytes_written") as f64, net_ops),
        "B",
    );
    rep.metric(
        "net.backpressure_stalls",
        delta("backpressure_stalls") as f64,
        "count",
    );
    rep.metric("proto.scan_ns", median(scan_ns), "ns");
    rep.metric("proto.self_ns", self_ns(&r.proto, &r.cache), "ns");
    rep.metric(
        "proto.allocs_per_req",
        per(proto_allocs as f64, n as u64),
        "count",
    );
    rep.metric(
        "proto.resp_bytes_per_req",
        per(resp_bytes as f64, n as u64),
        "B",
    );
    rep.metric("cache.get_ns", median(get_ns), "ns");
    rep.metric("cache.set_ns", median(set_ns), "ns");
    rep.metric("cache.self_ns", self_ns(&r.cache, &r.tm), "ns");
    rep.metric(
        "cache.allocs_per_op",
        per(cache_allocs as f64, cache_tally.ops),
        "count",
    );
    rep.metric(
        "cache.hit_ratio",
        per(
            cache_tally.hits as f64,
            cache_tally.hits + cache_tally.misses,
        ),
        "ratio",
    );
    rep.metric(
        "cache.evictions_per_kop",
        kop(evictions, cache_tally.ops),
        "count",
    );
    rep.metric("tm.ro_tx_ns", median(gets(&r.tm)), "ns");
    rep.metric(
        "tm.commits_per_op",
        per(tm.commits as f64, conc_ops),
        "count",
    );
    rep.metric("tm.aborts_per_kcommit", kop(tm.aborts, tm.commits), "count");
    rep.metric(
        "tm.useful_ratio",
        per(tm.commits as f64, tm.commits + tm.aborts),
        "ratio",
    );
    rep.metric(
        "tm.ro_fast_share",
        per(tm.ro_fast_commits as f64, tm.commits),
        "ratio",
    );
    rep.metric(
        "tm.clock_cas_retries_per_kop",
        kop(tm.clock_cas_retries, conc_ops),
        "count",
    );
    rep.metric(
        "tm.abort_serial_per_kop",
        kop(tm.abort_serial, conc_ops),
        "count",
    );
    rep.metric(
        "tm.unsafe_serial_per_kop",
        kop(tm.in_flight_switch + tm.start_serial, conc_ops),
        "count",
    );
    rep.metric("dur.encode_ns", dur_m.encode_ns, "ns");
    rep.metric("dur.append_ns", dur_m.append_ns, "ns");
    rep.metric("dur.fsyncs_per_kset", dur_m.fsyncs_per_kset, "count");
    rep.metric(
        "dur.log_bytes_per_user_byte",
        per(delta("dur_bytes") as f64, user_bytes),
        "ratio",
    );
    rep.metric("dur.recover_items_per_s", dur_m.recover_items_per_s, "1/s");
    rep.metric("host.calib_ns", calib_ns, "ns");
    rep.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
        "%",
    );
    Ok(rep)
}

fn frame_values(wl: &Workload, f: &Frame) -> Vec<Vec<u8>> {
    match f.kind {
        Kind::Get => Vec::new(),
        Kind::Set => f.keys.iter().map(|&k| wl.value(k)).collect(),
    }
}

fn store_ops<'a>(wl: &'a Workload, f: &Frame, values: &'a [Vec<u8>]) -> Vec<StoreOp<'a>> {
    f.keys
        .iter()
        .zip(values)
        .map(|(&k, v)| StoreOp {
            mode: StoreMode::Set,
            key: wl.key(k),
            value: v,
            flags: 0,
            exptime: 0,
        })
        .collect()
}

/// What a cache call returned.
enum CacheOut {
    Got(Vec<Option<GetValue>>),
    Stored(Vec<StoreStatus>),
}

/// The `McCache` call the server's protocol layer makes for a frame:
/// `get_multi` for any GET and `store_batch` for any SET, so the `proto`
/// rung's self time subtracts like for like.
fn cache_call(cache: &McCache, w: usize, wl: &Workload, f: &Frame, values: &[Vec<u8>]) -> CacheOut {
    match f.kind {
        Kind::Get => {
            let keys: Vec<&[u8]> = f.keys.iter().map(|&k| &wl.key(k)[..]).collect();
            CacheOut::Got(cache.get_multi(w, &keys))
        }
        Kind::Set => CacheOut::Stored(cache.store_batch(w, &store_ops(wl, f, values))),
    }
}

/// Checks a cache call's result against the oracle.
fn check_cache(wl: &Workload, f: &Frame, out: &CacheOut, allow_miss: bool) -> Tally {
    match out {
        CacheOut::Got(got) => check_get(
            wl,
            &f.keys,
            f.keys
                .iter()
                .zip(got)
                .filter_map(|(&k, v)| Some((&wl.key(k)[..], &v.as_ref()?.data[..]))),
            allow_miss,
        ),
        CacheOut::Stored(st) => {
            let bad = st.iter().filter(|s| **s != StoreStatus::Stored).count()
                + f.keys.len().saturating_sub(st.len());
            Tally {
                ops: f.keys.len() as u64,
                failed: bad as u64,
                ..Tally::default()
            }
        }
    }
}

/// One checked cache call (the untimed passes).
fn cache_checked(cache: &McCache, w: usize, wl: &Workload, f: &Frame, allow_miss: bool) -> Tally {
    check_cache(
        wl,
        f,
        &cache_call(cache, w, wl, f, &frame_values(wl, f)),
        allow_miss,
    )
}

/// Splits a request buffer into its frames with `scan_frame`.
fn scan_all(mut buf: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while let FrameScan::Ascii { len } | FrameScan::Binary { len } = proto::scan_frame(buf) {
        out.push(&buf[..len]);
        buf = &buf[len..];
    }
    out
}

/// What rung 5 measured.
#[derive(Default)]
struct DurRung {
    encode_ns: f64,
    append_ns: f64,
    fsyncs_per_kset: f64,
    recover_items_per_s: f64,
}

/// Rung 5: encode and append a redo record per stored key into a log
/// with the `every:32` fsync policy, then recover the log.
fn dur_rung(ctx: &Ctx, wl: &Workload, reqs: &[Req], tr: &mut Tracer) -> io::Result<DurRung> {
    let dir = crate::server::TempDir::new(ctx.tmp_root.join("ladder-log"))?;
    let log = DurLog::open(dir.path(), DurFsync::EveryN(32), 4 << 20, 0)?;
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (mut enc, mut app) = (Vec::new(), Vec::new());
    let mut stamp = 0u64;
    for (i, q) in reqs
        .iter()
        .enumerate()
        .filter(|(_, q)| q.frame.kind == Kind::Set)
    {
        for &k in &q.frame.keys {
            stamp += 1;
            let rec = Record::Set {
                cas: stamp,
                flags: 0,
                abs_exp: 0,
                stored_unix: now,
                key: wl.key(k).to_vec(),
                value: wl.value(k),
            };
            let id = tr.open(i as u32, "dur", None);
            let eid = tr.open(i as u32, "dur.encode", Some(id));
            std::hint::black_box(rec.encode(stamp));
            enc.push(tr.close(eid));
            let aid = tr.open(i as u32, "dur.append", Some(id));
            log.append(stamp, &rec);
            app.push(tr.close(aid));
            tr.close(id);
        }
    }
    let written = log.stats().snapshot();
    log.seal();
    if log.is_failed() {
        return Err(io::Error::other("ladder redo log failed"));
    }
    drop(log);
    let id = tr.open(u32::MAX, "dur.recover", None);
    let rec = dur::recover(dir.path())?;
    let secs = tr.close(id) / 1e9;
    if rec.torn_records_dropped != 0 {
        return Err(io::Error::other("ladder log recovered torn records"));
    }
    for e in &rec.entries {
        let k = key_index(&e.key).ok_or_else(|| io::Error::other("recovered a foreign key"))?;
        if !wl.verify_value(k, &e.value) {
            return Err(io::Error::other("recovered value differs from the oracle"));
        }
    }
    Ok(DurRung {
        encode_ns: median(enc),
        append_ns: median(app),
        fsyncs_per_kset: 1000.0 * written.fsyncs as f64 / written.appends.max(1) as f64,
        recover_items_per_s: rec.entries.len() as f64 / secs,
    })
}

/// Inverts `Workload::key`: `memslap-<12 digits>` padded with dots.
fn key_index(key: &[u8]) -> Option<usize> {
    std::str::from_utf8(key.get(8..20)?).ok()?.parse().ok()
}
