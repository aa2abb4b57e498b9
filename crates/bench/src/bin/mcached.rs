//! `mcached`: the transactionalized cache behind a real TCP server.
//!
//! ```console
//! $ cargo run --release -p bench --bin mcached -- \
//!       --port 11311 --threads 4 --branch it-oncommit --magazine 16 \
//!       --dur-path /var/tmp/mcached.d --dur-fsync every:32
//! LISTENING 127.0.0.1:11311
//! ```
//!
//! Runs until stdin reaches EOF, a line reading `shutdown` arrives (so a
//! harness can stop it cleanly through a pipe), or `SIGTERM`/`SIGINT` is
//! delivered. All three paths drain the workers, seal the redo log (when
//! `--dur-path` is set), print the final wire counters, and exit 0. The
//! main thread sleeps in `sigwait` until then; the stdin thread turns
//! `shutdown` or EOF into a `SIGTERM` to the process. `--port 0` binds
//! an ephemeral port; the `LISTENING` line reports the real one. `--udp
//! PORT` and `--unix PATH` open the extra transports (each gets its own
//! `LISTENING-UDP` / `LISTENING-UNIX` line). Workers run one epoll loop
//! each (Linux). Starting on a `--dur-path` that already holds a log
//! replays it before the socket opens.

use std::io::BufRead;

use mcache::net::{NetConfig, Server};
use mcache::{Branch, DurFsync, McCache, McConfig, Stage};

struct Args {
    host: String,
    port: u16,
    threads: usize,
    branch: Branch,
    magazine: usize,
    dur_path: Option<std::path::PathBuf>,
    dur_fsync: DurFsync,
    udp_port: Option<u16>,
    unix_path: Option<std::path::PathBuf>,
    idle_timeout_ms: u64,
}

fn parse_branch(name: &str) -> Option<Branch> {
    Some(match name {
        "baseline" => Branch::Baseline,
        "semaphore" => Branch::Semaphore,
        "ip" => Branch::Ip(Stage::Plain),
        "it" => Branch::It(Stage::Plain),
        "ip-max" => Branch::Ip(Stage::Max),
        "it-max" => Branch::It(Stage::Max),
        "ip-lib" => Branch::Ip(Stage::Lib),
        "it-lib" => Branch::It(Stage::Lib),
        "ip-oncommit" => Branch::Ip(Stage::OnCommit),
        "it-oncommit" => Branch::It(Stage::OnCommit),
        "ip-nolock" => Branch::IpNoLock,
        "it-nolock" => Branch::ItNoLock,
        _ => return None,
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 11311,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        branch: Branch::IpNoLock,
        magazine: 0,
        dur_path: None,
        dur_fsync: DurFsync::EveryN(32),
        udp_port: None,
        unix_path: None,
        idle_timeout_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| {
            it.next().and_then(|v| v.parse::<usize>().ok())
        };
        match flag.as_str() {
            "--host" => {
                if let Some(h) = it.next() {
                    args.host = h;
                }
            }
            "--port" | "-p" => {
                if let Some(v) = num(&mut it) {
                    args.port = v as u16;
                }
            }
            "--threads" | "-t" => {
                if let Some(v) = num(&mut it) {
                    args.threads = v.max(1);
                }
            }
            "--magazine" => {
                if let Some(v) = num(&mut it) {
                    args.magazine = v;
                }
            }
            "--branch" => {
                if let Some(b) = it.next().as_deref().and_then(parse_branch) {
                    args.branch = b;
                } else {
                    eprintln!("unknown branch; see examples/cache_server.rs for names");
                    std::process::exit(2);
                }
            }
            "--dur-path" => {
                if let Some(p) = it.next() {
                    args.dur_path = Some(std::path::PathBuf::from(p));
                } else {
                    eprintln!("--dur-path needs a directory");
                    std::process::exit(2);
                }
            }
            "--udp" | "-U" => {
                if let Some(v) = num(&mut it) {
                    args.udp_port = Some(v as u16);
                } else {
                    eprintln!("--udp needs a port (0 = ephemeral)");
                    std::process::exit(2);
                }
            }
            "--unix" | "-s" => {
                if let Some(p) = it.next() {
                    args.unix_path = Some(std::path::PathBuf::from(p));
                } else {
                    eprintln!("--unix needs a socket path");
                    std::process::exit(2);
                }
            }
            "--idle-timeout-ms" => {
                if let Some(v) = num(&mut it) {
                    args.idle_timeout_ms = v as u64;
                }
            }
            "--dur-fsync" => {
                if let Some(f) = it.next().as_deref().and_then(DurFsync::parse) {
                    args.dur_fsync = f;
                } else {
                    eprintln!("--dur-fsync takes always | every:N | off");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

// Raw C-library symbols: the workspace is hermetic (no `libc` crate).
// The constants are Linux's, where the server runs; a `sigset_t` is
// 128 bytes there.
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
const SIG_BLOCK: i32 = 0;
type SigSet = [u64; 16];
extern "C" {
    fn sigemptyset(set: *mut SigSet) -> i32;
    fn sigaddset(set: *mut SigSet, signum: i32) -> i32;
    fn pthread_sigmask(how: i32, set: *const SigSet, old: *mut SigSet) -> i32;
    fn sigwait(set: *const SigSet, sig: *mut i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Blocks SIGINT and SIGTERM in the calling thread and returns the set.
/// Called before any thread spawns, so every thread inherits the mask
/// and a stop signal stays pending until `main` takes it in `sigwait`.
fn block_stop_signals() -> SigSet {
    let mut set: SigSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer the size of `sigset_t`.
    unsafe {
        sigemptyset(&mut set);
        sigaddset(&mut set, SIGINT);
        sigaddset(&mut set, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &set, std::ptr::null_mut());
    }
    set
}

fn main() {
    let args = parse_args();
    let stop_signals = block_stop_signals();
    let handle = McCache::start(McConfig {
        branch: args.branch,
        workers: args.threads,
        magazine: args.magazine,
        dur_path: args.dur_path,
        dur_fsync: args.dur_fsync,
        ..Default::default()
    });
    if let Some(d) = handle.dur_stats() {
        println!(
            "RECOVERED items={} torn_records_dropped={}",
            d.recovered_items, d.torn_records_dropped
        );
    }
    let mut server = Server::start(
        handle,
        NetConfig {
            addr: format!("{}:{}", args.host, args.port),
            workers: args.threads,
            udp_addr: args.udp_port.map(|p| format!("{}:{}", args.host, p)),
            unix_path: args.unix_path,
            idle_timeout_ms: args.idle_timeout_ms,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("bind failed: {e}");
        std::process::exit(1);
    });
    // The harness contract: one LISTENING line per bound transport, then
    // serve until the pipe or a signal says stop.
    println!("LISTENING {}", server.local_addr());
    if let Some(u) = server.udp_addr() {
        println!("LISTENING-UDP {u}");
    }
    if let Some(p) = server.unix_path() {
        println!("LISTENING-UNIX {}", p.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Stdin lives on its own thread and ends in a SIGTERM to the
    // process, so main has one way to wake: `sigwait`.
    std::thread::spawn(|| {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "shutdown" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // SAFETY: kill(2) takes plain integers and touches no memory.
        unsafe { kill(std::process::id() as i32, SIGTERM) };
    });
    let mut sig = 0;
    // SAFETY: both pointers are to live locals of the declared types.
    unsafe { sigwait(&stop_signals, &mut sig) };

    // Graceful teardown: stop accepting, drain in-flight connections,
    // then seal the redo log so the next start skips the torn-tail scan.
    server.shutdown();
    server.cache().shutdown();
    let ns = server.net_stats();
    let s = server.cache().stats();
    println!(
        "shutdown: total_connections={} curr_connections={} bytes_read={} bytes_written={} \
         frame_errors={} accept_errors={} conn_timeouts={} cmd_get={} cmd_set={} \
         request_panics={}",
        ns.total_connections,
        ns.curr_connections,
        ns.bytes_read,
        ns.bytes_written,
        ns.frame_errors,
        ns.accept_errors,
        ns.conn_timeouts,
        s.threads.get_cmds,
        s.threads.set_cmds,
        s.request_panics,
    );
    if let Some(d) = server.cache().dur_stats() {
        println!(
            "durability: dur_appends={} dur_fsyncs={} dur_bytes={} log_write_errors={}",
            d.appends, d.fsyncs, d.bytes, d.log_write_errors
        );
    }
}
