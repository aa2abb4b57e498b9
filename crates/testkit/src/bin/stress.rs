//! Stress-harness driver: sweeps seeds through every runtime combination
//! until the time budget runs out, or replays one seed.
//!
//! ```text
//! cargo run --release -p testkit --bin stress -- --seconds 10
//! cargo run --release -p testkit --bin stress -- --seed 0x5eed
//! cargo run --release -p testkit --bin stress -- --seconds 5 --inject-bug
//! cargo run --release -p testkit --features chaos --bin stress -- --chaos --seconds 5
//! ```
//!
//! Exits non-zero on divergence, printing the failing seed and the replay
//! command. `--inject-bug` corrupts the oracle on purpose, to demonstrate
//! that detection and seed replay work. `--chaos` (requires the `chaos`
//! feature) arms `tm::fault` on every worker thread: spurious aborts,
//! bounded delays, and injected panics rain on all 21 combos while the
//! ticket oracle stays on.
//!
//! Every combo runs **five** schedules per seed: the mixed ticket
//! schedule, the read-mostly fast-lane schedule (transactions start
//! read-only, a quarter promote mid-flight; reader snapshots are
//! position-checked against the ticket-ordered serial prefix), the
//! write-heavy schedule (three quarters of the operations mutate, with
//! manufactured silent stores; the run fails if silent-store elision
//! never fired), and the contended-commit schedule (disjoint per-thread
//! write blocks with cross-block reads, so the threads fight over the
//! commit machinery — clock shards, orec stripes — instead of data; the
//! run fails if the per-shard clock stats stop attributing ticks to the
//! shards the workers ran on), and the packed-block schedule (threads own
//! round-robin cells, so every 64-byte orec block holds words of several
//! writers).

use std::time::{Duration, Instant};

use testkit::stress::{
    run_schedule, run_schedule_contended, run_schedule_packed, run_schedule_ro,
    run_schedule_sabotaged, run_schedule_wh, StressConfig,
};

struct Args {
    seconds: Option<u64>,
    seed: Option<u64>,
    threads: usize,
    txns: usize,
    cells: usize,
    ops: usize,
    inject_bug: bool,
    chaos: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seconds: None,
        seed: None,
        threads: 4,
        txns: 150,
        cells: 8,
        ops: 6,
        inject_bug: false,
        chaos: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            let v = it.next().unwrap_or_else(|| die(&format!("{what} needs a value")));
            let v = v.trim();
            let parsed = if let Some(h) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(h, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or_else(|_| die(&format!("bad value for {what}: {v}")))
        };
        match a.as_str() {
            "--seconds" => args.seconds = Some(num("--seconds")),
            "--seed" => args.seed = Some(num("--seed")),
            "--threads" => args.threads = num("--threads") as usize,
            "--txns" => args.txns = num("--txns") as usize,
            "--cells" => args.cells = num("--cells") as usize,
            "--ops" => args.ops = num("--ops") as usize,
            "--inject-bug" => args.inject_bug = true,
            "--chaos" => args.chaos = true,
            "--help" | "-h" => {
                println!(
                    "usage: stress [--seconds N | --seed S] [--threads N] [--txns N] \
                     [--cells N] [--ops N] [--inject-bug] [--chaos]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("stress: {msg}");
    std::process::exit(2);
}

/// Chaos sweep: same seed/combo loop as the plain mode, but through
/// [`testkit::stress::chaos::run_schedule_chaos`] with the default plan.
#[cfg(feature = "chaos")]
fn run_chaos(args: &Args, base: &StressConfig) -> ! {
    use testkit::stress::chaos;
    let combos = testkit::stress::combos();
    let plan = chaos::default_plan();
    let budget = Duration::from_secs(args.seconds.unwrap_or(10));
    let start = Instant::now();
    let (mut schedules, mut commits, mut aborts) = (0u64, 0u64, 0u64);
    let (mut injected, mut panic_aborts) = (0u64, 0u64);
    let (mut promotions, mut ro_commits, mut snaps_checked) = (0u64, 0u64, 0u64);
    let mut elisions = 0u64;
    let (mut shards_used, mut clock_retries) = (0usize, 0u64);
    let mut seed = args.seed.unwrap_or(1);
    loop {
        for &(algorithm, serial_lock, contention) in &combos {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            match chaos::run_schedule_chaos(seed, &cfg, plan) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.commits;
                    aborts += r.report.aborts;
                    injected += r.injected;
                    panic_aborts += r.panic_aborts;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match chaos::run_schedule_ro_chaos(seed, &cfg, plan) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.report.commits;
                    aborts += r.report.report.aborts;
                    injected += r.injected;
                    panic_aborts += r.panic_aborts;
                    promotions += r.report.ro_promotions;
                    ro_commits += r.report.ro_fast_commits;
                    snaps_checked += r.report.snapshots_checked;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match chaos::run_schedule_wh_chaos(seed, &cfg, plan) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.commits;
                    aborts += r.report.aborts;
                    injected += r.injected;
                    panic_aborts += r.panic_aborts;
                    elisions += r.report.silent_elisions;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match chaos::run_schedule_contended_chaos(seed, &cfg, plan) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.report.commits;
                    aborts += r.report.report.aborts;
                    injected += r.injected;
                    panic_aborts += r.panic_aborts;
                    shards_used = shards_used.max(r.report.shards_used);
                    clock_retries += r.report.clock_cas_retries;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match chaos::run_schedule_packed_chaos(seed, &cfg, plan) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.commits;
                    aborts += r.report.aborts;
                    injected += r.injected;
                    panic_aborts += r.panic_aborts;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
        }
        if args.seed.is_some() || start.elapsed() >= budget {
            break;
        }
        seed += 1;
    }
    println!(
        "stress: CHAOS OK — {} schedules over {} runtime combos, {} commits, {} aborts, \
         {} faults injected ({} panic teardowns), {} fast-lane commits, {} promotions, \
         {} reader snapshots checked, {} silent stores elided, contended commits over \
         up to {} clock shards ({} clock CAS retries), {:.2}s",
        schedules,
        combos.len(),
        commits,
        aborts,
        injected,
        panic_aborts,
        ro_commits,
        promotions,
        snaps_checked,
        elisions,
        shards_used,
        clock_retries,
        start.elapsed().as_secs_f64()
    );
    std::process::exit(0);
}

#[cfg(not(feature = "chaos"))]
fn run_chaos(_args: &Args, _base: &StressConfig) -> ! {
    die(
        "chaos mode needs the `chaos` feature: \
         cargo run --release -p testkit --features chaos --bin stress -- --chaos",
    );
}

fn main() {
    let args = parse_args();
    let base = StressConfig {
        threads: args.threads,
        cells: args.cells,
        txns_per_thread: args.txns,
        max_ops_per_txn: args.ops,
        ..StressConfig::smoke()
    };
    if args.chaos {
        run_chaos(&args, &base);
    }
    let run = if args.inject_bug {
        run_schedule_sabotaged
    } else {
        run_schedule
    };
    let combos = testkit::stress::combos();
    let budget = Duration::from_secs(args.seconds.unwrap_or(10));
    let start = Instant::now();
    let mut schedules = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let (mut promotions, mut ro_commits, mut snaps_checked) = (0u64, 0u64, 0u64);
    let mut elisions = 0u64;
    let (mut shards_used, mut clock_retries) = (0usize, 0u64);
    let mut seed = args.seed.unwrap_or(1);
    loop {
        for &(algorithm, serial_lock, contention) in &combos {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            match run(seed, &cfg) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.commits;
                    aborts += r.aborts;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match run_schedule_ro(seed, &cfg) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.commits;
                    aborts += r.report.aborts;
                    promotions += r.ro_promotions;
                    ro_commits += r.ro_fast_commits;
                    snaps_checked += r.snapshots_checked;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match run_schedule_wh(seed, &cfg) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.commits;
                    aborts += r.aborts;
                    elisions += r.silent_elisions;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match run_schedule_contended(seed, &cfg) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.report.commits;
                    aborts += r.report.aborts;
                    shards_used = shards_used.max(r.shards_used);
                    clock_retries += r.clock_cas_retries;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
            match run_schedule_packed(seed, &cfg) {
                Ok(r) => {
                    schedules += 1;
                    commits += r.commits;
                    aborts += r.aborts;
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
        }
        // A single --seed run sweeps the matrix exactly once.
        if args.seed.is_some() || start.elapsed() >= budget {
            break;
        }
        seed += 1;
    }
    println!(
        "stress: OK — {} schedules over {} runtime combos, {} commits, {} aborts, \
         {} fast-lane commits, {} promotions, {} reader snapshots checked, \
         {} silent stores elided, contended commits over up to {} clock shards \
         ({} clock CAS retries), {:.2}s",
        schedules,
        combos.len(),
        commits,
        aborts,
        ro_commits,
        promotions,
        snaps_checked,
        elisions,
        shards_used,
        clock_retries,
        start.elapsed().as_secs_f64()
    );
}
