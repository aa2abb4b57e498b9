//! The workload oracle: reads the reply to one frame and counts the
//! operations it got wrong.
//!
//! A failure is a wrong value, a miss on a workload that must not evict,
//! an error line or error status, or a missing reply (an I/O error, which
//! the caller counts against the whole frame).

use std::io;

use bench::wire::{AsciiValue, WireConn};
use mcache::proto::binary::{Opcode, Response, Status};
use workload::Workload;

use crate::spec::{Frame, Kind, Proto, STOP_OPAQUE};

/// Operations checked, and what came of them. A frame of `n` keys is `n`
/// operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.hits += o.hits;
        self.misses += o.misses;
    }

    /// The whole frame failed (no usable reply).
    pub fn lost(frame: &Frame) -> Tally {
        let n = frame.keys.len() as u64;
        Tally {
            ops: n,
            failed: n,
            ..Tally::default()
        }
    }
}

/// Checks the values a GET frame returned, as `(key, data)` pairs.
pub fn check_get<'a>(
    wl: &Workload,
    keys: &[usize],
    got: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    allow_miss: bool,
) -> Tally {
    let mut seen = vec![false; keys.len()];
    let mut bad = vec![false; keys.len()];
    let mut stray = 0u64;
    for (key, data) in got {
        match keys.iter().position(|&k| &wl.key(k)[..] == key) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                bad[i] = !wl.verify_value(keys[i], data);
            }
            _ => stray += 1,
        }
    }
    let hits = seen.iter().filter(|&&s| s).count() as u64;
    let misses = keys.len() as u64 - hits;
    let wrong = bad.iter().filter(|&&b| b).count() as u64;
    let failed = wrong + stray + if allow_miss { 0 } else { misses };
    Tally {
        ops: keys.len() as u64,
        failed: failed.min(keys.len() as u64),
        hits,
        misses,
    }
}

/// Checks the one-line reply to an ASCII SET frame (CRLF stripped):
/// `STORED` for a single set, the `VERSION` sentinel for a noreply run.
pub fn check_set_line(frame: &Frame, line: &[u8]) -> Tally {
    let ok = if frame.keys.len() > 1 {
        line.starts_with(b"VERSION ")
    } else {
        line == b"STORED"
    };
    if ok {
        Tally {
            ops: frame.keys.len() as u64,
            ..Tally::default()
        }
    } else {
        Tally::lost(frame)
    }
}

/// Checks the binary responses to a quiet run, up to and including the
/// closing `NOOP`.
pub fn check_binary(wl: &Workload, frame: &Frame, resps: &[Response], allow_miss: bool) -> Tally {
    let Some((last, body)) = resps.split_last() else {
        return Tally::lost(frame);
    };
    if last.opcode != Opcode::Noop || last.opaque != STOP_OPAQUE || last.status != Status::Ok {
        return Tally::lost(frame);
    }
    match frame.kind {
        Kind::Get => {
            let mut t = check_get(
                wl,
                &frame.keys,
                body.iter()
                    .filter(|r| r.status == Status::Ok && r.opcode == Opcode::GetKQ)
                    .map(|r| (&r.key[..], &r.value[..])),
                allow_miss,
            );
            let errors = body
                .iter()
                .filter(|r| r.status != Status::Ok || r.opcode != Opcode::GetKQ);
            t.failed = (t.failed + errors.count() as u64).min(t.ops);
            t
        }
        // A quiet store answers only on failure.
        Kind::Set => Tally {
            ops: frame.keys.len() as u64,
            failed: (body.len() as u64).min(frame.keys.len() as u64),
            ..Tally::default()
        },
    }
}

/// A reply as read off the wire, not yet checked.
pub enum Reply {
    Values(Vec<AsciiValue>),
    Line(Vec<u8>),
    Binary(Vec<Response>),
}

/// Sends `bytes` (the encoding of `frame`) and checks the reply.
pub fn roundtrip(
    conn: &mut WireConn,
    wl: &Workload,
    frame: &Frame,
    proto: Proto,
    bytes: &[u8],
    allow_miss: bool,
) -> io::Result<Tally> {
    conn.send(bytes)?;
    Ok(check_reply(
        wl,
        frame,
        &read_reply(conn, frame, proto)?,
        allow_miss,
    ))
}

/// Reads the whole reply to an already sent `frame`.
pub fn read_reply(conn: &mut WireConn, frame: &Frame, proto: Proto) -> io::Result<Reply> {
    Ok(match (proto, frame.kind) {
        (Proto::Ascii, Kind::Get) => Reply::Values(conn.read_values()?),
        (Proto::Ascii, Kind::Set) => Reply::Line(conn.read_line()?),
        (Proto::Binary, _) => {
            let mut resps = Vec::with_capacity(frame.keys.len() + 1);
            loop {
                let r = conn.read_response()?;
                let done = r.opaque == STOP_OPAQUE;
                resps.push(r);
                if done {
                    return Ok(Reply::Binary(resps));
                }
            }
        }
    })
}

/// Checks a reply read by [`read_reply`].
pub fn check_reply(wl: &Workload, frame: &Frame, reply: &Reply, allow_miss: bool) -> Tally {
    match reply {
        Reply::Values(values) => check_get(
            wl,
            &frame.keys,
            values.iter().map(|v| (&v.key[..], &v.data[..])),
            allow_miss,
        ),
        Reply::Line(line) if frame.kind == Kind::Set => check_set_line(frame, line),
        Reply::Line(_) => Tally::lost(frame),
        Reply::Binary(resps) => check_binary(wl, frame, resps, allow_miss),
    }
}

/// Checks an in-process ASCII reply buffer (what `execute_ascii_run`
/// returned for the frame's requests).
pub fn check_ascii_bytes(wl: &Workload, frame: &Frame, reply: &[u8], allow_miss: bool) -> Tally {
    match frame.kind {
        Kind::Get => match parse_values(reply) {
            Some(values) => check_get(wl, &frame.keys, values, allow_miss),
            None => Tally::lost(frame),
        },
        Kind::Set => match reply.strip_suffix(b"\r\n") {
            Some(line) if !line.contains(&b'\n') => check_set_line(frame, line),
            _ => Tally::lost(frame),
        },
    }
}

/// Splits a complete ASCII get reply into `(key, data)` pairs; `None`
/// unless the buffer is exactly `VALUE` blocks closed by `END`.
fn parse_values(mut buf: &[u8]) -> Option<Vec<(&[u8], &[u8])>> {
    let mut out = Vec::new();
    loop {
        let eol = buf.windows(2).position(|w| w == b"\r\n")?;
        let line = &buf[..eol];
        buf = &buf[eol + 2..];
        if line == b"END" {
            return buf.is_empty().then_some(out);
        }
        let mut parts = line.split(|&b| b == b' ');
        let (Some(b"VALUE"), Some(key), Some(_flags), Some(len)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return None;
        };
        let len: usize = std::str::from_utf8(len).ok()?.parse().ok()?;
        if buf.len() < len + 2 || &buf[len..len + 2] != b"\r\n" {
            return None;
        }
        out.push((key, &buf[..len]));
        buf = &buf[len + 2..];
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    use super::*;
    use crate::spec::{encode, spec};

    /// A fake server: reads one request, answers with `reply`, and keeps
    /// the socket open until the client hangs up (or closes at once if
    /// `reply` is `None`: a dropped reply).
    fn fake_responder(reply: Option<Vec<u8>>) -> (String, std::thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf).unwrap();
            if let Some(r) = reply {
                s.write_all(&r).unwrap();
                let _ = s.read(&mut buf);
            }
        });
        (addr, h)
    }

    fn get_reply(wl: &Workload, k: usize, corrupt: bool) -> Vec<u8> {
        let mut v = wl.value(k);
        if corrupt {
            v[3] ^= 0x40;
        }
        let mut r = format!(
            "VALUE {} 0 {}\r\n",
            String::from_utf8_lossy(wl.key(k)),
            v.len()
        )
        .into_bytes();
        r.extend_from_slice(&v);
        r.extend_from_slice(b"\r\nEND\r\n");
        r
    }

    fn ask(reply: Option<Vec<u8>>, allow_miss: bool) -> io::Result<Tally> {
        let s = spec("get-zipf").unwrap();
        let wl = s.workload(3);
        let frame = Frame {
            kind: Kind::Get,
            keys: vec![42],
        };
        let (addr, h) = fake_responder(reply);
        let mut conn = WireConn::connect(&addr).unwrap();
        let bytes = encode(&wl, &frame, Proto::Ascii);
        let out = roundtrip(&mut conn, &wl, &frame, Proto::Ascii, &bytes, allow_miss);
        drop(conn);
        h.join().unwrap();
        out
    }

    #[test]
    fn correct_reply_passes() {
        let wl = spec("get-zipf").unwrap().workload(3);
        let t = ask(Some(get_reply(&wl, 42, false)), false).unwrap();
        assert_eq!(
            t,
            Tally {
                ops: 1,
                failed: 0,
                hits: 1,
                misses: 0
            }
        );
    }

    #[test]
    fn corrupted_value_is_flagged() {
        let wl = spec("get-zipf").unwrap().workload(3);
        let t = ask(Some(get_reply(&wl, 42, true)), false).unwrap();
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn another_keys_value_is_flagged() {
        let wl = spec("get-zipf").unwrap().workload(3);
        let t = ask(Some(get_reply(&wl, 43, false)), true).unwrap();
        assert_eq!(t.failed, 1, "stray key");
    }

    #[test]
    fn dropped_value_is_a_miss_and_fails_without_evictions() {
        assert_eq!(ask(Some(b"END\r\n".to_vec()), false).unwrap().failed, 1);
        let t = ask(Some(b"END\r\n".to_vec()), true).unwrap();
        assert_eq!((t.failed, t.misses), (0, 1));
    }

    #[test]
    fn dropped_reply_is_an_error() {
        assert!(ask(None, false).is_err());
    }

    #[test]
    fn error_line_fails_a_set() {
        let frame = Frame {
            kind: Kind::Set,
            keys: vec![1],
        };
        assert_eq!(
            check_set_line(&frame, b"SERVER_ERROR out of memory").failed,
            1
        );
        assert_eq!(check_set_line(&frame, b"STORED").failed, 0);
    }

    #[test]
    fn binary_error_status_fails() {
        let wl = spec("multiget-batch").unwrap().workload(1);
        let frame = Frame {
            kind: Kind::Set,
            keys: vec![1, 2],
        };
        let noop = Response {
            status: Status::Ok,
            opcode: Opcode::Noop,
            opaque: STOP_OPAQUE,
            cas: 0,
            flags: 0,
            key: Vec::new(),
            value: Vec::new(),
        };
        assert_eq!(
            check_binary(&wl, &frame, std::slice::from_ref(&noop), false).failed,
            0
        );
        let err = Response {
            status: Status::OutOfMemory,
            opcode: Opcode::SetQ,
            opaque: 0,
            ..noop.clone()
        };
        assert_eq!(check_binary(&wl, &frame, &[err, noop], false).failed, 1);
        assert_eq!(check_binary(&wl, &frame, &[], false).failed, 2);
    }

    #[test]
    fn parses_in_process_ascii_replies() {
        let wl = spec("get-zipf").unwrap().workload(3);
        let frame = Frame {
            kind: Kind::Get,
            keys: vec![42],
        };
        let ok = get_reply(&wl, 42, false);
        assert_eq!(check_ascii_bytes(&wl, &frame, &ok, false).failed, 0);
        assert_eq!(
            check_ascii_bytes(&wl, &frame, &ok[..ok.len() - 2], false).failed,
            1
        );
        assert_eq!(
            check_ascii_bytes(&wl, &frame, &get_reply(&wl, 42, true), false).failed,
            1
        );
    }
}
