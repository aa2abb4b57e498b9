//! The `mcached` child process, its `/proc` counters, and the scratch
//! directory a durable run keeps its log in.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;

use bench::wire::WireConn;

/// Pids of live children, so the deadline watchdog can stop them.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;

/// Kills `pid` outright (a hung server; the deadline).
pub fn kill_pid(pid: u32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Kills every live child; the deadline watchdog's last act.
pub fn kill_all() {
    if let Ok(live) = LIVE.lock() {
        for &pid in live.iter() {
            kill_pid(pid);
        }
    }
}

/// A running `mcached`.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: u32,
    /// `(recovered_items, torn_records_dropped)` when started on a log.
    pub recovered: Option<(u64, u64)>,
}

impl Server {
    /// Spawns `bin args..` and waits for its `LISTENING` line.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        LIVE.lock().expect("live-pid registry poisoned").push(pid);
        let stdin = child.stdin.take();
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut srv = Server {
            child,
            stdin,
            out,
            addr: String::new(),
            pid,
            recovered: None,
        };
        loop {
            let line = srv.line()?;
            if let Some(rest) = line.strip_prefix("RECOVERED ") {
                let kv = key_values(rest);
                srv.recovered = Some((kv["items"], kv["torn_records_dropped"]));
            } else if let Some(a) = line.strip_prefix("LISTENING ") {
                srv.addr = a.trim().to_string();
                return Ok(srv);
            }
        }
    }

    fn line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.out.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "mcached exited",
            ));
        }
        Ok(s)
    }

    /// Graceful stop through the stdin pipe; returns the counters of the
    /// `shutdown:` and `durability:` lines.
    pub fn shutdown(mut self) -> io::Result<HashMap<String, u64>> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"shutdown\n")?;
        }
        let mut counters = HashMap::new();
        loop {
            match self.line() {
                Ok(l) => {
                    for p in ["shutdown: ", "durability: "] {
                        if let Some(rest) = l.strip_prefix(p) {
                            counters.extend(key_values(rest));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
        }
        let status = self.child.wait()?;
        forget_pid(self.pid);
        if !status.success() {
            return Err(io::Error::other(format!("mcached exited with {status}")));
        }
        Ok(counters)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        forget_pid(self.pid);
    }
}

fn forget_pid(pid: u32) {
    if let Ok(mut live) = LIVE.lock() {
        live.retain(|&p| p != pid);
    }
}

fn key_values(s: &str) -> HashMap<String, u64> {
    s.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// The server's `stats` counters (cache, TM, durability and wire).
pub fn stats(conn: &mut WireConn) -> io::Result<HashMap<String, u64>> {
    Ok(conn.ascii_stats()?.into_iter().collect())
}

/// `after[k] - before[k]`, 0 when absent.
pub fn delta(before: &HashMap<String, u64>, after: &HashMap<String, u64>, k: &str) -> u64 {
    after
        .get(k)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(k).copied().unwrap_or(0))
}

/// Process-wide counters read from `/proc/<pid>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// System CPU from `stat`, in microseconds (clock-tick resolution).
    pub sys_us: f64,
    /// The same user plus system time at ns resolution: on-CPU time from
    /// each thread's `schedstat`, in microseconds.
    pub cpu_us: f64,
    /// Voluntary context switches summed over the threads.
    pub vol_switches: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> io::Result<ProcSample> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name: state is field 3,
        // stime 15.
        let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick_us = 1e6 / clock_ticks_per_s();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        let (mut vol_switches, mut cpu_ns) = (0, 0u64);
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let task = task?.path();
            let status = std::fs::read_to_string(task.join("status")).unwrap_or_default();
            vol_switches += status_field(&status, "voluntary_ctxt_switches:");
            let sched = std::fs::read_to_string(task.join("schedstat")).unwrap_or_default();
            cpu_ns += sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        Ok(ProcSample {
            sys_us: ticks(12) * tick_us,
            cpu_us: cpu_ns as f64 / 1e3,
            vol_switches,
        })
    }
}

fn clock_ticks_per_s() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf(3) reads a constant; no memory is passed.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Host CPU time, all CPUs, from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    /// Ticks the hypervisor ran something else while a CPU wanted to run.
    pub steal: u64,
    pub total: u64,
}

impl HostCpu {
    pub fn read() -> io::Result<HostCpu> {
        let stat = std::fs::read_to_string("/proc/stat")?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Ok(HostCpu {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        })
    }

    /// Share of CPU time stolen between `self` and `later`.
    pub fn steal_since(&self, earlier: &HostCpu) -> f64 {
        (self.steal - earlier.steal) as f64 / (self.total - earlier.total).max(1) as f64
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(status_field(&status, "VmHWM:") as f64 / 1024.0)
}

/// Bytes the process caused to be written to storage, if readable.
pub fn storage_write_bytes(pid: u32) -> Option<u64> {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    Some(status_field(&io, "write_bytes:"))
}

/// A scratch directory removed on drop, whether the run passed or not.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(path: PathBuf) -> io::Result<TempDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
