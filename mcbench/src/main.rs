//! `mcbench`: runs one named workload against a real `mcached` over
//! loopback TCP and prints its metrics.
//!
//! ```console
//! $ bash mcbench/run.sh --workload get-zipf --seed 1 --seconds 16 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same requests through each layer in turn (the ladder in `ladder.rs`)
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every reply matched the oracle, no server
//! error counter moved, and the run measured its workload.

mod check;
mod ladder;
mod load;
mod server;
mod spec;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::Tally;

#[global_allocator]
static ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

/// Hard cap on one run, set-up included; the run is abandoned (servers
/// killed, scratch removed, exit 1) past it.
const DEADLINE: Duration = Duration::from_secs(170);

/// Where the run finds its server binary and keeps its scratch files.
pub struct Ctx {
    pub mcached: PathBuf,
    /// Scratch directory for redo logs, removed when the run ends.
    pub tmp_root: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// A run's outcome.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics printed by name but left out of the result line: their
    /// run-to-run spread on a shared 2-vCPU host is wider than any bound
    /// a regression gate could use (see README.md).
    pub ungated: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Reasons the run does not measure its workload.
    pub invalid: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn ungated(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.ungated.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.ops.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.invalid.is_empty() && self.tally.ops > 0
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `q` quantile of sorted samples (nearest rank); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// Median of unsorted samples.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A fixed in-process kernel, timed on CPU 0: an integer mixing loop and
/// 1 KiB copies. It tracks how fast this host is today, so numbers from
/// different hosts or days can be compared; it rescales nothing.
fn host_calib_ns() -> f64 {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    std::thread::spawn(|| {
        let cpu0: u64 = 1;
        // SAFETY: `cpu0` is a live u64 mask and its size is passed with
        // it; pid 0 means the calling (calibration) thread only.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &cpu0);
        }
        let src = [0x5au8; 1024];
        let mut dst = [0u8; 1024];
        let mut samples = Vec::new();
        for _ in 0..15 {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..100_000u64 {
                x = (x ^ (x >> 29))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            for _ in 0..1_000 {
                dst.copy_from_slice(std::hint::black_box(&src));
                std::hint::black_box(&mut dst);
            }
            samples.push(t.elapsed().as_nanos() as f64);
        }
        median(samples)
    })
    .join()
    .expect("calibration thread panicked")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = v.parse::<f64>().map_err(|_| format!("bad --seconds {v}"))?
            }
            "--trace" => a.trace = v.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("mcbench: {e}");
        std::process::exit(2);
    });
    let Some(spec) = spec::spec(&args.workload) else {
        let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "mcbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    // The server binary is built next to this one (see run.sh).
    let exe = std::env::current_exe().expect("own executable path");
    let bin_dir = exe.parent().expect("executable has a directory");
    let target = bin_dir.parent().expect("target/release layout");
    let tmp_root = target
        .join("mcbench-tmp")
        .join(format!("{}-{}", spec.name, std::process::id()));
    let ctx = Ctx {
        mcached: bin_dir.join("mcached"),
        out_dir: target.join("mcbench"),
        tmp_root: tmp_root.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        eprintln!("mcbench: run exceeded {DEADLINE:?}; abandoning it");
        server::kill_all();
        std::thread::sleep(Duration::from_millis(200));
        let _ = std::fs::remove_dir_all(&tmp_root);
        std::process::exit(1);
    });

    let calib = host_calib_ns();
    let wl = spec.workload(args.seed);
    let result = if args.trace {
        ladder::run(&ctx, spec, &wl, calib)
    } else {
        load::run(&ctx, spec, &wl)
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp_root);
    if let Some(parent) = ctx.tmp_root.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    let rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mcbench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}: {}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        spec.why
    );
    println!("host.calib_ns {calib:.0}");
    for n in &rep.notes {
        println!("{n}");
    }
    for why in &rep.invalid {
        println!("INVALID: {why}");
    }
    for (n, v, u) in &rep.metrics {
        println!("{n:<32} {v:>14.3} {u}");
    }
    for (n, v, u) in &rep.ungated {
        println!("{n:<32} {v:>14.3} {u} (not gated)");
    }
    println!(
        "{:<32} {:>14} ratio ({} of {} operations; the result line's failed/attempted)",
        "failed_frac",
        rep.tally.failed as f64 / rep.tally.ops.max(1) as f64,
        rep.tally.failed,
        rep.tally.ops
    );
    println!("{}", rep.json());
    if !rep.correct() {
        std::process::exit(1);
    }
}
