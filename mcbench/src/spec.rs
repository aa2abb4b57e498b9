//! The three workloads, their server flags and fixed-rate constants, and
//! the request frames each connection sends.
//!
//! Every request is generated from the `--seed` through
//! [`workload::Workload`]: keys are `memslap-<index>` and a key's value is
//! a pure function of its index, so any reply can be checked with
//! [`workload::Workload::verify_value`].

use mcache::proto::binary::{Opcode, Request};
use workload::{Op, OpMix, OpStream, Workload};

/// Flags every workload's `mcached` runs with (all others default).
pub const SERVER_FLAGS: &[&str] = &["--threads", "2", "--branch", "it-oncommit"];

/// Extra flags of the durable workload, after `--dur-path <fresh dir>`.
/// Every commit is encoded and appended to the log, but the server never
/// waits on `fdatasync`: on a shared virtual disk its latency (0.2-0.4 ms
/// median, 10 ms stalls every second) swamps every other cost and does
/// not repeat from run to run. The fsync policy is measured per layer by
/// the traced run's own `every:32` log.
pub const DUR_FLAGS: &[&str] = &["--dur-fsync", "off"];

/// Load connections (one client thread each).
pub const CONNS: usize = 2;

/// The opaque of the `NOOP` that closes a binary quiet run.
pub const STOP_OPAQUE: u32 = u32::MAX;

/// Wire protocol of one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Ascii,
    Binary,
}

/// One named workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub keys: usize,
    pub value_min: usize,
    pub value_max: usize,
    /// Zipfian exponent; 0 = uniform.
    pub zipf: f64,
    /// Read and write weights of a frame.
    pub get_weight: u32,
    pub set_weight: u32,
    /// Keys per frame: 1 = single-key requests, >1 = multiget / set runs.
    pub batch: usize,
    /// Protocol of connection 1 (connection 0 always speaks ASCII).
    pub conn1: Proto,
    /// Redo log on, with a restart and replay inside set-up.
    pub durable: bool,
    /// The keyspace fits in the cache: any eviction or miss is a failure.
    pub no_evict: bool,
    /// Fixed-rate phase: frames per second over both connections. About
    /// a sixth of the closed-loop frame rate on a 2-vCPU host, so a spell
    /// at half speed still leaves the server idle most of the time instead
    /// of building a backlog.
    pub fixed_rate: f64,
    /// Share of the measured time spent in closed-loop blocks; the rest is
    /// fixed-rate.
    pub closed_share: f64,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "get-zipf",
        why: "ordinary cache-hit traffic: every request pays a socket round trip, \
              so net does most of the server's work and dur none",
        keys: 50_000,
        value_min: 64,
        value_max: 512,
        zipf: 0.99,
        get_weight: 95,
        set_weight: 5,
        batch: 1,
        conn1: Proto::Ascii,
        durable: false,
        no_evict: true,
        fixed_rate: 5_000.0,
        closed_share: 0.5,
    },
    Spec {
        name: "multiget-batch",
        why: "8-key batches spread each wake-up over 8 keys, so proto parsing, \
              response formatting and one-transaction get_multi/store_batch dominate",
        keys: 16_384,
        value_min: 1024,
        value_max: 1024,
        zipf: 0.0,
        get_weight: 9,
        set_weight: 1,
        batch: 8,
        conn1: Proto::Binary,
        durable: false,
        no_evict: true,
        fixed_rate: 1_500.0,
        closed_share: 0.5,
    },
    Spec {
        name: "set-durable",
        why: "write transactions, slab churn under eviction and redo-log \
              encode/append, which the other two workloads skip",
        keys: 120_000,
        value_min: 64,
        value_max: 512,
        zipf: 0.0,
        get_weight: 20,
        set_weight: 80,
        batch: 1,
        conn1: Proto::Ascii,
        durable: true,
        no_evict: false,
        fixed_rate: 1_500.0,
        // Closed-loop SETs append to the log as fast as the server
        // commits them; a small share bounds the log one run writes.
        closed_share: 0.2,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn workload(&self, seed: u64) -> Workload {
        let mut b = Workload::builder()
            .concurrency(CONNS)
            .key_count(self.keys)
            // Streams are cut by time, never by count.
            .execute_number(usize::MAX)
            .value_size_range(self.value_min, self.value_max)
            .mix(OpMix {
                get: self.get_weight,
                set: self.set_weight,
                delete: 0,
                incr: 0,
            })
            .seed(seed);
        if self.zipf > 0.0 {
            b = b.zipf(self.zipf);
        }
        b.build()
    }

    pub fn proto(&self, conn: usize) -> Proto {
        if conn == 0 {
            Proto::Ascii
        } else {
            self.conn1
        }
    }

    /// The `mcached` arguments, given the log directory of a durable run.
    pub fn server_args(&self, dur_dir: Option<&std::path::Path>) -> Vec<String> {
        let mut args: Vec<String> = vec!["--port".into(), "0".into()];
        args.extend(SERVER_FLAGS.iter().map(|s| s.to_string()));
        if let Some(d) = dur_dir {
            args.push("--dur-path".into());
            args.push(d.display().to_string());
            args.extend(DUR_FLAGS.iter().map(|s| s.to_string()));
        }
        args
    }
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
}

/// One request frame: a GET (or multiget) or a SET (or SET run) over
/// distinct keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: Kind,
    pub keys: Vec<usize>,
}

/// A connection's frame stream: a frame takes its kind from the first op
/// of [`Workload::stream`] and its keys from that op and the next ones.
pub struct Frames {
    ops: OpStream,
    batch: usize,
}

impl Frames {
    pub fn new(wl: &Workload, spec: &Spec, conn: usize) -> Frames {
        Frames {
            ops: wl.stream(conn),
            batch: spec.batch,
        }
    }
}

impl Iterator for Frames {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let first = self.ops.next()?;
        let kind = match first {
            Op::Get(_) => Kind::Get,
            _ => Kind::Set,
        };
        let mut keys = vec![first.key_index()];
        while keys.len() < self.batch {
            let k = self.ops.next()?.key_index();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        Some(Frame { kind, keys })
    }
}

/// The exact request bytes of `frame` in `proto`.
///
/// ASCII: `get k1 .. kn`; a single `set`; or a run of `set .. noreply`
/// closed by `version`. Binary: `GETKQ`xn or `SETQ`xn closed by a `NOOP`.
pub fn encode(wl: &Workload, frame: &Frame, proto: Proto) -> Vec<u8> {
    let mut out = Vec::new();
    match (proto, frame.kind) {
        (Proto::Ascii, Kind::Get) => {
            out.extend_from_slice(b"get");
            for &k in &frame.keys {
                out.push(b' ');
                out.extend_from_slice(wl.key(k));
            }
            out.extend_from_slice(b"\r\n");
        }
        (Proto::Ascii, Kind::Set) => {
            let quiet = frame.keys.len() > 1;
            for &k in &frame.keys {
                let value = wl.value(k);
                out.extend_from_slice(b"set ");
                out.extend_from_slice(wl.key(k));
                let noreply = if quiet { " noreply" } else { "" };
                out.extend_from_slice(format!(" 0 0 {}{noreply}\r\n", value.len()).as_bytes());
                out.extend_from_slice(&value);
                out.extend_from_slice(b"\r\n");
            }
            if quiet {
                out.extend_from_slice(b"version\r\n");
            }
        }
        (Proto::Binary, kind) => {
            for (i, &k) in frame.keys.iter().enumerate() {
                let (opcode, value) = match kind {
                    Kind::Get => (Opcode::GetKQ, Vec::new()),
                    Kind::Set => (Opcode::SetQ, wl.value(k)),
                };
                out.extend_from_slice(
                    &binary_request(opcode, i as u32, wl.key(k).to_vec(), value).encode(),
                );
            }
            out.extend_from_slice(
                &binary_request(Opcode::Noop, STOP_OPAQUE, Vec::new(), Vec::new()).encode(),
            );
        }
    }
    out
}

fn binary_request(opcode: Opcode, opaque: u32, key: Vec<u8>, value: Vec<u8>) -> Request {
    Request {
        opcode,
        opaque,
        cas: 0,
        key,
        value,
        extra: 0,
    }
}

/// Preload frames: every key once, as ASCII `set .. noreply` runs.
pub fn preload_frames(spec: &Spec) -> impl Iterator<Item = Frame> + '_ {
    const RUN: usize = 64;
    (0..spec.keys).step_by(RUN).map(move |lo| Frame {
        kind: Kind::Set,
        keys: (lo..(lo + RUN).min(spec.keys)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_seeded_and_distinct() {
        let s = spec("multiget-batch").unwrap();
        let wl = s.workload(7);
        let a: Vec<Frame> = Frames::new(&wl, s, 0).take(50).collect();
        let b: Vec<Frame> = Frames::new(&s.workload(7), s, 0).take(50).collect();
        assert_eq!(a, b);
        for f in &a {
            assert_eq!(f.keys.len(), 8);
            let mut k = f.keys.clone();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), 8);
        }
        let c: Vec<Frame> = Frames::new(&s.workload(8), s, 0).take(50).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn ascii_set_run_ends_with_version() {
        let s = spec("multiget-batch").unwrap();
        let wl = s.workload(1);
        let f = Frame {
            kind: Kind::Set,
            keys: vec![1, 2],
        };
        let bytes = encode(&wl, &f, Proto::Ascii);
        assert!(bytes.ends_with(b"version\r\n"));
        assert_eq!(bytes.windows(7).filter(|w| w == b"noreply").count(), 2);
    }
}
