//! Deterministic, seed-replayable concurrency stress schedules for the
//! `tm` runtime.
//!
//! The shape follows the systematic-testing literature (and the paper's
//! own evaluation): N threads run *random transactional programs* whose
//! content is a pure function of `(seed, thread, txn index)`, and the
//! final heap is checked against a **sequential model**. The oracle works
//! because STM promises serializability: every transaction increments a
//! shared ticket cell *inside* the transaction, so the committed ticket
//! values name the equivalent serial order exactly. Replaying each
//! transaction's operations in ticket order through a plain `Vec<u64>`
//! interpreter must land on the same final state — any divergence is a
//! runtime bug (lost update, dirty read, broken undo/redo log, ...).
//!
//! Interleavings are shaped, not fixed: threads advance in *barrier-stepped
//! rounds* (every thread starts round `r` together, with a seed-derived
//! stagger spin), which concentrates overlap far beyond free-running
//! threads. The schedule's *programs* are fully deterministic, so a
//! failing seed prints one line that reproduces the exact program set:
//!
//! ```text
//! [testkit] stress divergence (seed 0x000000000000002a, eager/rwlock/no-cm) ...
//! [testkit] replay: cargo run --release -p testkit --bin stress -- --seed 0x2a ...
//! ```
//!
//! [`run_matrix`] sweeps every `Algorithm` × `SerialLockMode` ×
//! `ContentionManager` combination the runtime supports.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use tm::{
    Abort, Algorithm, ClockShardStats, ContentionManager, SerialLockMode, SwitchError, TBytes,
    TCell, TmRuntime, Transaction,
};

use crate::rng::{mix_seed, Rng, SmallRng, SplitMix64};

/// Size and combination parameters for one schedule.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Worker threads.
    pub threads: usize,
    /// Shared transactional cells.
    pub cells: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Upper bound on operations per transaction (the count is drawn per
    /// transaction from the seed).
    pub max_ops_per_txn: usize,
    /// STM algorithm under test.
    pub algorithm: Algorithm,
    /// Serial-lock mode under test.
    pub serial_lock: SerialLockMode,
    /// Contention manager under test.
    pub contention: ContentionManager,
}

impl StressConfig {
    /// A small schedule suitable for unit tests and smoke runs: enough
    /// contention to abort constantly, small enough to finish in
    /// milliseconds.
    pub fn smoke() -> Self {
        StressConfig {
            threads: 4,
            cells: 8,
            txns_per_thread: 60,
            max_ops_per_txn: 6,
            algorithm: Algorithm::Eager,
            serial_lock: SerialLockMode::ReaderWriter,
            contention: ContentionManager::GCC_DEFAULT,
        }
    }

    /// Short display label for the runtime combination.
    pub fn combo(&self) -> String {
        format!(
            "{}/{}/{}",
            self.algorithm,
            match self.serial_lock {
                SerialLockMode::ReaderWriter => "rwlock",
                SerialLockMode::None => "nolock",
            },
            self.contention
        )
    }
}

/// A passed schedule's measurements.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// The combination that ran.
    pub combo: String,
    /// Committed transactions (= threads × txns_per_thread).
    pub commits: u64,
    /// Aborted attempts observed by the runtime during the schedule.
    pub aborts: u64,
    /// Writes the runtime elided as silent stores during the schedule.
    pub silent_elisions: u64,
    /// Completed algorithm/CM switches during the schedule (nonzero only
    /// for the `*_switching` arms on a serial-locked runtime).
    pub config_switches: u64,
}

/// A schedule whose concurrent outcome disagreed with the sequential
/// model. [`fmt::Display`] prints the seed and a replay command.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The seed that reproduces the failing schedule.
    pub seed: u64,
    /// The runtime combination that diverged.
    pub combo: String,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[testkit] stress divergence (seed {:#018x}, {}): {}\n\
             [testkit] replay: cargo run --release -p testkit --bin stress -- --seed {:#x}",
            self.seed, self.combo, self.detail, self.seed
        )
    }
}

impl std::error::Error for Divergence {}

/// One operation of a random transactional program. Every variant is a
/// pure function of its operands, so the sequential interpreter in
/// [`run_schedule`] replays it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StressOp {
    /// Store a constant.
    Write(usize, u64),
    /// Add a constant (wrapping).
    Add(usize, u64),
    /// Copy cell `a` into cell `b`.
    Copy(usize, usize),
    /// Combine cells `a` and `b` into `b` (xor-rotate-add, so ordering
    /// mistakes cannot cancel out the way plain addition can).
    Mix(usize, usize),
}

/// How a schedule draws its per-transaction programs. Plain `fn` pointer so
/// worker threads can share it without capturing.
pub type ProgramFn = fn(u64, usize, usize, &StressConfig) -> Vec<StressOp>;

/// The program for transaction `txn` of thread `thread` — a pure function
/// of the schedule seed, replayable anywhere.
pub fn txn_program(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, thread as u64 + 1),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(1..cfg.max_ops_per_txn.max(2));
    (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => StressOp::Write(rng.gen_range(0..cfg.cells), rng.next_u64()),
            1 => StressOp::Add(rng.gen_range(0..cfg.cells), rng.gen_range(0u64..1000)),
            2 => StressOp::Copy(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells)),
            _ => StressOp::Mix(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells)),
        })
        .collect()
}

/// The **write-heavy** program for transaction `txn` of thread `thread`:
/// three quarters of the operations mutate, and two arms manufacture
/// *silent stores* on purpose — a self-copy writes back the value it just
/// read, and a duplicated constant write makes its second half a no-op —
/// so the write path's silent-store elision fires constantly while the
/// ticket oracle keeps checking serializability underneath it.
pub fn wh_txn_program(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0x3717 + thread as u64),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(2..cfg.max_ops_per_txn.max(3));
    let mut ops = Vec::with_capacity(n + 1);
    while ops.len() < n {
        match rng.gen_range(0u32..8) {
            0 | 1 | 2 => ops.push(StressOp::Write(rng.gen_range(0..cfg.cells), rng.next_u64())),
            3 | 4 => ops.push(StressOp::Add(rng.gen_range(0..cfg.cells), rng.gen_range(0u64..1000))),
            5 => {
                // Silent by construction: write the value just read.
                let i = rng.gen_range(0..cfg.cells);
                ops.push(StressOp::Copy(i, i));
            }
            6 => {
                // The second write of the pair stores what's already there.
                let i = rng.gen_range(0..cfg.cells);
                let v = rng.next_u64();
                ops.push(StressOp::Write(i, v));
                ops.push(StressOp::Write(i, v));
            }
            _ => ops.push(StressOp::Mix(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells))),
        }
    }
    ops
}

/// The **contended-commit** program for transaction `txn` of thread
/// `thread`: every mutation lands in the thread's own block of cells
/// (`cells / threads` wide), so worker *write sets are disjoint by
/// construction* and the only shared write is the ticket cell — the
/// schedule contends on the commit machinery itself (clock shards, orec
/// stripes, the NOrec seqlock) rather than on data. Reads still cross
/// blocks: `Copy` and `Mix` pull a neighbour's cell into the own block,
/// so validation keeps real cross-thread edges to check.
///
/// Write-disjointness needs `cfg.cells >= cfg.threads`; with fewer cells
/// the blocks wrap and overlap (the schedule stays correct, just not
/// disjoint).
pub fn contended_txn_program(
    seed: u64,
    thread: usize,
    txn: usize,
    cfg: &StressConfig,
) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0xC0D7 + thread as u64),
        txn as u64 + 1,
    ));
    let block = (cfg.cells / cfg.threads.max(1)).max(1);
    let lo = (thread * block) % cfg.cells;
    let width = block.min(cfg.cells - lo);
    let n = rng.gen_range(2..cfg.max_ops_per_txn.max(3));
    (0..n)
        .map(|_| {
            let own = lo + rng.gen_range(0..width);
            match rng.gen_range(0u32..8) {
                0 | 1 | 2 => StressOp::Write(own, rng.next_u64()),
                3 | 4 => StressOp::Add(own, rng.gen_range(0u64..1000)),
                5 | 6 => StressOp::Copy(rng.gen_range(0..cfg.cells), own),
                _ => StressOp::Mix(rng.gen_range(0..cfg.cells), own),
            }
        })
        .collect()
}

/// The **packed-block** program for transaction `txn` of thread `thread`:
/// every mutation lands on one of the thread's own cells, and cells are
/// dealt round-robin (cell `i` belongs to thread `i % threads`), so each
/// 64-byte orec block holds the words of several threads. Write sets are
/// disjoint by word but share blocks: on the orec engines concurrent
/// writers conflict on every shared orec, and an undo or write-back that
/// covered a whole block instead of the words written would clobber a
/// neighbour's committed update. Reads still cross threads.
///
/// Word-disjointness needs `cfg.cells >= cfg.threads`; with fewer cells
/// threads wrap onto shared cells (the schedule stays correct).
pub fn packed_txn_program(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0xB10C + thread as u64),
        txn as u64 + 1,
    ));
    let stride = cfg.threads.max(1);
    let first = thread % cfg.cells;
    let owned = (cfg.cells - first).div_ceil(stride);
    let n = rng.gen_range(2..cfg.max_ops_per_txn.max(3));
    (0..n)
        .map(|_| {
            let own = first + stride * rng.gen_range(0..owned);
            match rng.gen_range(0u32..8) {
                0 | 1 | 2 => StressOp::Write(own, rng.next_u64()),
                3 | 4 => StressOp::Add(own, rng.gen_range(0u64..1000)),
                5 | 6 => StressOp::Copy(rng.gen_range(0..cfg.cells), own),
                _ => StressOp::Mix(rng.gen_range(0..cfg.cells), own),
            }
        })
        .collect()
}

fn mix_values(a: u64, b: u64) -> u64 {
    (a ^ b).rotate_left(7).wrapping_add(0x9E37_79B9_7F4A_7C15)
}

fn apply_model(model: &mut [u64], op: StressOp) {
    match op {
        StressOp::Write(i, v) => model[i] = v,
        StressOp::Add(i, d) => model[i] = model[i].wrapping_add(d),
        StressOp::Copy(a, b) => model[b] = model[a],
        StressOp::Mix(a, b) => model[b] = mix_values(model[a], model[b]),
    }
}

/// Applies one op transactionally — the concurrent counterpart of
/// [`apply_model`], shared by every schedule flavor.
fn apply_tx<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    cells: &'env [TCell<u64>],
    op: StressOp,
) -> Result<(), Abort> {
    match op {
        StressOp::Write(i, v) => tx.write(&cells[i], v),
        StressOp::Add(i, d) => tx.modify(&cells[i], |x| x.wrapping_add(d)).map(|_| ()),
        StressOp::Copy(a, b) => {
            let v = tx.read(&cells[a])?;
            tx.write(&cells[b], v)
        }
        StressOp::Mix(a, b) => {
            let va = tx.read(&cells[a])?;
            let vb = tx.read(&cells[b])?;
            tx.write(&cells[b], mix_values(va, vb))
        }
    }
}

fn initial_values(seed: u64, cells: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(mix_seed(seed, 0xCE11));
    (0..cells).map(|_| rng.next_u64()).collect()
}

/// Runs one barrier-stepped schedule and checks it against the sequential
/// model.
///
/// # Errors
///
/// Returns [`Divergence`] — carrying the replay seed — when the committed
/// state disagrees with the model.
pub fn run_schedule(seed: u64, cfg: &StressConfig) -> Result<StressReport, Divergence> {
    run_schedule_impl(seed, cfg, false, txn_program, false).map(|(r, _, _)| r)
}

/// The configurations the mid-load switcher cycles through: every
/// algorithm appears with a distinct contention manager, so a switching
/// schedule keeps crossing eager↔lazy↔norec boundaries (undo-log,
/// redo-log, and value-validation commit paths) while transactions are
/// in flight.
const SWITCH_CYCLE: [(Algorithm, ContentionManager); 4] = [
    (Algorithm::Eager, ContentionManager::GCC_DEFAULT),
    (Algorithm::Norec, ContentionManager::Backoff { max_shift: 8 }),
    (Algorithm::Lazy, ContentionManager::HOURGLASS_128),
    (Algorithm::Norec, ContentionManager::None),
];

/// The controller stand-in: keeps calling [`TmRuntime::switch_config`]
/// with seed-derived picks from [`SWITCH_CYCLE`] until told to stop,
/// returning how many switches completed. On a lock-free runtime every
/// attempt must be refused with [`SwitchError::NoSerialLock`] — anything
/// else is a harness bug worth dying loudly over.
fn switcher_loop(rt: &TmRuntime, stop: &AtomicBool, seed: u64, locked: bool) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x5317C4));
    let mut switched = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let (algo, cm) = SWITCH_CYCLE[rng.gen_range(0..SWITCH_CYCLE.len())];
        match rt.switch_config(algo, cm) {
            Ok(changed) => {
                assert!(locked, "switch succeeded without a serial lock");
                // `Ok(false)` is the no-op path (already at that config):
                // the runtime's counter only moves on real switches.
                switched += u64::from(changed);
            }
            Err(SwitchError::NoSerialLock) => {
                assert!(!locked, "switch refused despite a serial lock")
            }
        }
        // A short seed-derived pause between quiesces so workers make
        // real progress under every configuration the cycle visits.
        std::thread::sleep(std::time::Duration::from_micros(rng.gen_range(20u64..200)));
    }
    switched
}

/// Runs one barrier-stepped schedule with a live controller thread
/// flipping the runtime's algorithm + contention manager underneath it
/// (the adaptive runtime's quiesce-and-swap, driven adversarially), and
/// checks the result against the sequential model. On a serial-locked
/// runtime the schedule must have crossed at least one switch; on a
/// lock-free runtime every switch attempt must have been refused.
///
/// # Errors
///
/// Returns [`Divergence`] on model disagreement, when no switch landed
/// despite a serial lock, or when the runtime's switch counter disagrees
/// with the switcher's own tally.
pub fn run_schedule_switching(seed: u64, cfg: &StressConfig) -> Result<StressReport, Divergence> {
    let (report, _, _) = run_schedule_impl(seed, cfg, false, txn_program, true)?;
    check_switch_report(seed, cfg, &report, "")?;
    Ok(report)
}

/// Shared post-conditions for the switching arms (plain and chaos).
fn check_switch_report(
    seed: u64,
    cfg: &StressConfig,
    report: &StressReport,
    prefix: &str,
) -> Result<(), Divergence> {
    let locked = matches!(cfg.serial_lock, SerialLockMode::ReaderWriter);
    if locked && report.config_switches == 0 {
        return Err(Divergence {
            seed,
            combo: cfg.combo(),
            detail: format!(
                "{prefix}switching schedule completed no switches despite a serial lock"
            ),
        });
    }
    if !locked && report.config_switches != 0 {
        return Err(Divergence {
            seed,
            combo: cfg.combo(),
            detail: format!(
                "{prefix}lock-free runtime reported {} completed switches",
                report.config_switches
            ),
        });
    }
    Ok(())
}

/// Runs one **write-heavy** barrier-stepped schedule ([`wh_txn_program`])
/// and checks it against the sequential model. On top of the ticket
/// oracle, the schedule must have actually exercised silent-store
/// elision — a write-heavy run that never elides means the optimization
/// is dead under that combination.
///
/// # Errors
///
/// Returns [`Divergence`] on model disagreement, or when the schedule
/// elided nothing despite its manufactured silent stores.
pub fn run_schedule_wh(seed: u64, cfg: &StressConfig) -> Result<StressReport, Divergence> {
    let (report, _, _) = run_schedule_impl(seed, cfg, false, wh_txn_program, false)?;
    if report.silent_elisions == 0 {
        return Err(Divergence {
            seed,
            combo: cfg.combo(),
            detail: "write-heavy schedule elided no silent stores — \
                     the elision path is dead under this combination"
                .into(),
        });
    }
    Ok(report)
}

/// Runs one **packed-block** barrier-stepped schedule
/// ([`packed_txn_program`]) and checks it against the sequential model.
///
/// # Errors
///
/// Returns [`Divergence`] when the committed state disagrees with the
/// model.
pub fn run_schedule_packed(seed: u64, cfg: &StressConfig) -> Result<StressReport, Divergence> {
    run_schedule_impl(seed, cfg, false, packed_txn_program, false).map(|(r, _, _)| r)
}

/// [`run_schedule`] with a deliberately injected bug: after the sequential
/// replay, the model's cell 0 is bumped by one — exactly what the
/// concurrent state would look like if the runtime lost one update to that
/// cell. Exists to prove, in tests and from the stress binary's
/// `--inject-bug` flag, that a divergence is detected and reproduces
/// deterministically from its printed seed.
#[doc(hidden)]
pub fn run_schedule_sabotaged(seed: u64, cfg: &StressConfig) -> Result<StressReport, Divergence> {
    run_schedule_impl(seed, cfg, true, txn_program, false).map(|(r, _, _)| r)
}

/// Besides the report, returns each worker's clock-shard affinity (in
/// join order) and the runtime's final per-shard clock stats, so the
/// contended wrapper can cross-check shard attribution.
fn run_schedule_impl(
    seed: u64,
    cfg: &StressConfig,
    sabotage: bool,
    program: ProgramFn,
    switching: bool,
) -> Result<(StressReport, Vec<usize>, Vec<ClockShardStats>), Divergence> {
    assert!(cfg.threads > 0 && cfg.cells > 0 && cfg.txns_per_thread > 0);
    let rt = TmRuntime::builder()
        .algorithm(cfg.algorithm)
        .serial_lock(cfg.serial_lock)
        .contention_manager(cfg.contention)
        .build();
    let init = initial_values(seed, cfg.cells);
    let cells: Vec<TCell<u64>> = init.iter().copied().map(TCell::new).collect();
    let ticket = TCell::new(0u64);

    // Barrier-stepped rounds: every thread enters round r together; the
    // round length is drawn from the seed so different seeds produce
    // differently-chunked interleavings.
    let mut round_rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x0107));
    let per_round = round_rng.gen_range(1usize..5);
    let rounds = cfg.txns_per_thread.div_ceil(per_round);
    let barrier = Barrier::new(cfg.threads);

    let before = rt.stats();
    // (ticket, thread, txn) for every committed transaction.
    let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(cfg.threads * cfg.txns_per_thread);
    let mut worker_shards: Vec<usize> = Vec::with_capacity(cfg.threads);
    let stop = AtomicBool::new(false);
    let mut switched = 0u64;
    std::thread::scope(|s| {
        let switcher = switching.then(|| {
            let rt = &rt;
            let stop = &stop;
            let locked = matches!(cfg.serial_lock, SerialLockMode::ReaderWriter);
            s.spawn(move || switcher_loop(rt, stop, seed, locked))
        });
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let rt = &rt;
            let cells = &cells;
            let ticket = &ticket;
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                // Shard affinity is per OS thread; record it from inside.
                let shard = rt.current_thread_shard();
                let mut mine = Vec::with_capacity(cfg.txns_per_thread);
                let mut stagger = SplitMix64::seed_from_u64(mix_seed(seed, 0x57A6 + t as u64));
                for r in 0..rounds {
                    barrier.wait();
                    // A short seed-derived spin decorrelates which thread
                    // reaches the transactions first in each round.
                    for _ in 0..stagger.gen_range(0u32..64) {
                        std::hint::spin_loop();
                    }
                    let lo = r * per_round;
                    let hi = ((r + 1) * per_round).min(cfg.txns_per_thread);
                    for j in lo..hi {
                        let ops = program(seed, t, j, cfg);
                        // Ticket last: the bodies of concurrent attempts
                        // overlap, and only their commits serialize on it.
                        let tk = rt.atomic(|tx| {
                            for &op in &ops {
                                apply_tx(tx, cells, op)?;
                            }
                            tx.fetch_add(ticket, 1)
                        });
                        mine.push((tk, t, j));
                    }
                }
                (mine, shard)
            }));
        }
        for h in handles {
            let (mine, shard) = h.join().expect("stress worker panicked");
            order.extend(mine);
            worker_shards.push(shard);
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(h) = switcher {
            switched = h.join().expect("switcher panicked");
        }
    });
    let stats = rt.stats().since(&before);
    let shard_stats = rt.clock_shard_stats();

    let diverge = |detail: String| Divergence {
        seed,
        combo: cfg.combo(),
        detail,
    };

    // The tickets must be exactly 0..n — a gap or duplicate is a lost or
    // doubled ticket update, itself a serializability violation.
    let total = cfg.threads * cfg.txns_per_thread;
    order.sort_unstable();
    for (expect, &(tk, t, j)) in order.iter().enumerate() {
        if tk != expect as u64 {
            return Err(diverge(format!(
                "ticket sequence broken at position {expect}: got ticket {tk} \
                 (thread {t}, txn {j}) — lost or duplicated ticket update"
            )));
        }
    }
    if ticket.load_direct() != total as u64 {
        return Err(diverge(format!(
            "ticket cell ended at {} after {} transactions",
            ticket.load_direct(),
            total
        )));
    }

    // Sequential replay in ticket order.
    let mut model = init;
    for &(_tk, t, j) in &order {
        for op in program(seed, t, j, cfg) {
            apply_model(&mut model, op);
        }
    }
    if sabotage {
        model[0] = model[0].wrapping_add(1);
    }
    for (i, cell) in cells.iter().enumerate() {
        let actual = cell.load_direct();
        if actual != model[i] {
            return Err(diverge(format!(
                "cell {i}: concurrent result {actual:#x} != sequential model {:#x}",
                model[i]
            )));
        }
    }
    if stats.config_switches != switched {
        return Err(diverge(format!(
            "runtime counted {} config switches, the switcher completed {}",
            stats.config_switches, switched
        )));
    }
    Ok((
        StressReport {
            combo: cfg.combo(),
            commits: stats.commits,
            aborts: stats.aborts,
            silent_elisions: stats.silent_store_elisions,
            config_switches: stats.config_switches,
        },
        worker_shards,
        shard_stats,
    ))
}

/// Chaos mode: the same programs and the same ticket oracle as
/// [`run_schedule`], but every worker thread arms `tm::fault` with a
/// seed-derived stream, so the runtime is bombarded with spurious aborts,
/// bounded delays, and injected panics at its five fault sites while the
/// serializability check stays on.
///
/// Compiled only with the `chaos` feature (which turns on `tm/fault`).
#[cfg(feature = "chaos")]
pub mod chaos {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use tm::fault::{self, FaultPlan};

    /// One passed chaos schedule: the ordinary report plus how hard the
    /// fault layer actually hit the runtime.
    #[derive(Clone, Debug)]
    pub struct ChaosReport {
        /// The ordinary schedule measurements.
        pub report: StressReport,
        /// Fault actions (aborts + delays + panics) injected across all
        /// worker threads.
        pub injected: u64,
        /// Attempts torn down by a panic unwinding through the runtime.
        pub panic_aborts: u64,
    }

    /// The plan the stress binary's `--chaos` mode uses: every site armed,
    /// with per-site-visit rates of ~1.6% spurious abort, ~3% bounded
    /// delay, and ~0.4% panic. A transaction visits a dozen-odd sites per
    /// attempt, so most transactions see at least one fault while every
    /// retry loop still terminates quickly.
    pub const fn default_plan() -> FaultPlan {
        FaultPlan::all_sites(1024, 2048, 256)
    }

    /// Injected panics unwind through `catch_unwind` thousands of times
    /// per schedule; the default panic hook would print a backtrace header
    /// for each. Install (once) a hook that swallows exactly the fault
    /// layer's own payloads and forwards everything else.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("tm::fault injected panic"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    /// Runs one barrier-stepped schedule with every worker thread armed
    /// for fault injection, then checks the ticket oracle and the
    /// sequential model exactly as [`run_schedule`] does.
    ///
    /// Injected panics are caught per transaction and classified with the
    /// thread's commit tally: a panic whose attempt never committed
    /// (body/validation/commit-path injection) retries the same program;
    /// a panic *after* the commit point (an injected handler panic) keeps
    /// its ticket — the data is committed and must appear in the serial
    /// order exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] when the committed state disagrees with the
    /// model — under chaos that means a fault unwound the runtime into an
    /// inconsistent state (leaked orec, half-applied undo, ...).
    pub fn run_schedule_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<ChaosReport, Divergence> {
        run_schedule_chaos_impl(seed, cfg, plan, txn_program, false).map(|(r, _, _)| r)
    }

    /// [`super::run_schedule_switching`] under fault injection: the
    /// controller stand-in keeps flipping the algorithm + contention
    /// manager while every worker is armed with spurious aborts, delays,
    /// and panics — the adaptive runtime's worst afternoon. The same
    /// ticket oracle and switch post-conditions apply.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] on model disagreement or broken switch
    /// accounting.
    pub fn run_schedule_switching_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<ChaosReport, Divergence> {
        let (r, _, _) = run_schedule_chaos_impl(seed, cfg, plan, txn_program, true)?;
        check_switch_report(seed, cfg, &r.report, "[chaos] ")?;
        Ok(r)
    }

    /// [`run_schedule_switching_chaos`] across every [`combos`]
    /// combination.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Divergence`].
    pub fn run_matrix_switching_chaos(
        seed: u64,
        base: &StressConfig,
        plan: FaultPlan,
    ) -> Result<Vec<ChaosReport>, Divergence> {
        let mut reports = Vec::new();
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            reports.push(run_schedule_switching_chaos(seed, &cfg, plan)?);
        }
        Ok(reports)
    }

    /// [`run_schedule_wh`] under fault injection: write-heavy programs
    /// with manufactured silent stores, every worker armed, the same
    /// ticket oracle — and the same demand that silent-store elision
    /// actually fired. Elision under chaos is the scary case: an elided
    /// write is logged as a *read*, so a spurious abort or injected panic
    /// between the elision decision and the commit must still roll the
    /// attempt back to a state where the re-execution can decide
    /// differently.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] on model disagreement or when nothing was
    /// elided.
    pub fn run_schedule_wh_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<ChaosReport, Divergence> {
        let (r, _, _) = run_schedule_chaos_impl(seed, cfg, plan, wh_txn_program, false)?;
        if r.report.silent_elisions == 0 {
            return Err(Divergence {
                seed,
                combo: cfg.combo(),
                detail: "[chaos] write-heavy schedule elided no silent stores — \
                         the elision path is dead under this combination"
                    .into(),
            });
        }
        Ok(r)
    }

    /// [`super::run_schedule_packed`] under fault injection: threads
    /// writing distinct words of shared orec blocks, every worker armed,
    /// the same ticket oracle. A fault between two block acquisitions of
    /// one attempt must roll back only that attempt's words.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] on model disagreement.
    pub fn run_schedule_packed_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<ChaosReport, Divergence> {
        run_schedule_chaos_impl(seed, cfg, plan, packed_txn_program, false).map(|(r, _, _)| r)
    }

    /// [`run_schedule_wh_chaos`] across every [`combos`] combination.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Divergence`].
    pub fn run_matrix_wh_chaos(
        seed: u64,
        base: &StressConfig,
        plan: FaultPlan,
    ) -> Result<Vec<ChaosReport>, Divergence> {
        let mut reports = Vec::new();
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            reports.push(run_schedule_wh_chaos(seed, &cfg, plan)?);
        }
        Ok(reports)
    }

    fn run_schedule_chaos_impl(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
        program: ProgramFn,
        switching: bool,
    ) -> Result<(ChaosReport, Vec<usize>, Vec<ClockShardStats>), Divergence> {
        assert!(cfg.threads > 0 && cfg.cells > 0 && cfg.txns_per_thread > 0);
        silence_injected_panics();
        let rt = TmRuntime::builder()
            .algorithm(cfg.algorithm)
            .serial_lock(cfg.serial_lock)
            .contention_manager(cfg.contention)
            .build();
        let init = initial_values(seed, cfg.cells);
        let cells: Vec<TCell<u64>> = init.iter().copied().map(TCell::new).collect();
        let ticket = TCell::new(0u64);

        let mut round_rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x0107));
        let per_round = round_rng.gen_range(1usize..5);
        let rounds = cfg.txns_per_thread.div_ceil(per_round);
        let barrier = Barrier::new(cfg.threads);

        let before = rt.stats();
        let mut order: Vec<(u64, usize, usize)> =
            Vec::with_capacity(cfg.threads * cfg.txns_per_thread);
        let mut injected = 0u64;
        let mut worker_shards: Vec<usize> = Vec::with_capacity(cfg.threads);
        let stop = AtomicBool::new(false);
        let mut switched = 0u64;
        std::thread::scope(|s| {
            let switcher = switching.then(|| {
                let rt = &rt;
                let stop = &stop;
                let locked = matches!(cfg.serial_lock, SerialLockMode::ReaderWriter);
                // The switcher itself stays unarmed: faults belong in the
                // transactional paths it is quiescing, not in the quiesce.
                s.spawn(move || switcher_loop(rt, stop, seed, locked))
            });
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let rt = &rt;
                let cells = &cells;
                let ticket = &ticket;
                let barrier = &barrier;
                handles.push(s.spawn(move || {
                    fault::arm_thread(mix_seed(seed, 0xFA07 + t as u64), plan);
                    let shard = rt.current_thread_shard();
                    let mut mine = Vec::with_capacity(cfg.txns_per_thread);
                    let mut stagger =
                        SplitMix64::seed_from_u64(mix_seed(seed, 0x57A6 + t as u64));
                    // Ticket captured by the attempt that ends up
                    // committing, read back when a post-commit handler
                    // panic carries the ticket away from `rt.atomic`.
                    let tk_cell = Cell::new(u64::MAX);
                    for r in 0..rounds {
                        barrier.wait();
                        for _ in 0..stagger.gen_range(0u32..64) {
                            std::hint::spin_loop();
                        }
                        let lo = r * per_round;
                        let hi = ((r + 1) * per_round).min(cfg.txns_per_thread);
                        for j in lo..hi {
                            let ops = program(seed, t, j, cfg);
                            // A seed-derived quarter of the transactions
                            // register no-op handlers so the Handler fault
                            // site (handler panics after the commit point)
                            // gets exercised too.
                            let with_handlers =
                                mix_seed(mix_seed(seed, 0x4A0D + t as u64), j as u64) & 3 == 0;
                            let tk = loop {
                                // Reset the tally so the commit/abort
                                // delta below covers exactly this call.
                                let _ = tm::take_thread_tally();
                                tk_cell.set(u64::MAX);
                                let attempt = catch_unwind(AssertUnwindSafe(|| {
                                    rt.atomic(|tx| {
                                        if with_handlers {
                                            tx.on_commit(|| {});
                                            tx.on_abort(|| {});
                                        }
                                        for &op in &ops {
                                            apply_tx(tx, cells, op)?;
                                        }
                                        let tk = tx.fetch_add(ticket, 1)?;
                                        tk_cell.set(tk);
                                        Ok(tk)
                                    })
                                }));
                                match attempt {
                                    Ok(tk) => break tk,
                                    Err(_injected_panic) => {
                                        if tm::take_thread_tally().commits > 0 {
                                            // The attempt committed before
                                            // the (handler) panic: its
                                            // effects are durable, so its
                                            // ticket must be recorded.
                                            break tk_cell.get();
                                        }
                                        // Pre-commit panic: fully rolled
                                        // back, retry the same program.
                                    }
                                }
                            };
                            mine.push((tk, t, j));
                        }
                    }
                    let hits = fault::injected_count();
                    fault::disarm_thread();
                    (mine, hits, shard)
                }));
            }
            for h in handles {
                let (mine, hits, shard) =
                    h.join().expect("chaos worker escaped its catch_unwind");
                order.extend(mine);
                injected += hits;
                worker_shards.push(shard);
            }
            stop.store(true, Ordering::SeqCst);
            if let Some(h) = switcher {
                switched = h.join().expect("switcher panicked");
            }
        });
        let stats = rt.stats().since(&before);
        let shard_stats = rt.clock_shard_stats();

        let diverge = |detail: String| Divergence {
            seed,
            combo: cfg.combo(),
            detail,
        };

        let total = cfg.threads * cfg.txns_per_thread;
        order.sort_unstable();
        for (expect, &(tk, t, j)) in order.iter().enumerate() {
            if tk != expect as u64 {
                return Err(diverge(format!(
                    "[chaos] ticket sequence broken at position {expect}: got ticket {tk} \
                     (thread {t}, txn {j}) — lost or duplicated ticket update"
                )));
            }
        }
        if ticket.load_direct() != total as u64 {
            return Err(diverge(format!(
                "[chaos] ticket cell ended at {} after {} transactions",
                ticket.load_direct(),
                total
            )));
        }

        let mut model = init;
        for &(_tk, t, j) in &order {
            for op in program(seed, t, j, cfg) {
                apply_model(&mut model, op);
            }
        }
        for (i, cell) in cells.iter().enumerate() {
            let actual = cell.load_direct();
            if actual != model[i] {
                return Err(diverge(format!(
                    "[chaos] cell {i}: concurrent result {actual:#x} != sequential model {:#x}",
                    model[i]
                )));
            }
        }
        if stats.config_switches != switched {
            return Err(diverge(format!(
                "[chaos] runtime counted {} config switches, the switcher completed {}",
                stats.config_switches, switched
            )));
        }
        Ok((
            ChaosReport {
                report: StressReport {
                    combo: cfg.combo(),
                    commits: stats.commits,
                    aborts: stats.aborts,
                    silent_elisions: stats.silent_store_elisions,
                    config_switches: stats.config_switches,
                },
                injected,
                panic_aborts: stats.panic_aborts,
            },
            worker_shards,
            shard_stats,
        ))
    }

    /// One passed contended-commit chaos schedule.
    #[derive(Clone, Debug)]
    pub struct ContendedChaosReport {
        /// The contended measurements, shard attribution included.
        pub report: ContendedReport,
        /// Fault actions injected across all worker threads.
        pub injected: u64,
        /// Attempts torn down by a panic unwinding through the runtime.
        pub panic_aborts: u64,
    }

    /// [`run_schedule_contended`] under fault injection: disjoint write
    /// sets, every worker armed, the ticket oracle on — and the per-shard
    /// clock stats must still attribute commit ticks to every shard the
    /// workers ran on, even with spurious aborts and panics landing in
    /// the middle of the commit-tick CAS loop.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] on model disagreement or broken shard
    /// attribution.
    pub fn run_schedule_contended_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<ContendedChaosReport, Divergence> {
        let (r, worker_shards, shard_stats) =
            run_schedule_chaos_impl(seed, cfg, plan, contended_txn_program, false)?;
        check_shard_divergence(seed, cfg, &worker_shards, &shard_stats, "[chaos] ")?;
        Ok(ContendedChaosReport {
            report: contended_report(r.report, worker_shards, shard_stats),
            injected: r.injected,
            panic_aborts: r.panic_aborts,
        })
    }

    /// [`run_schedule_contended_chaos`] across every [`combos`]
    /// combination.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Divergence`].
    pub fn run_matrix_contended_chaos(
        seed: u64,
        base: &StressConfig,
        plan: FaultPlan,
    ) -> Result<Vec<ContendedChaosReport>, Divergence> {
        let mut reports = Vec::new();
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            reports.push(run_schedule_contended_chaos(seed, &cfg, plan)?);
        }
        Ok(reports)
    }

    /// [`run_schedule_chaos`] across every [`combos`] combination.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Divergence`].
    pub fn run_matrix_chaos(
        seed: u64,
        base: &StressConfig,
        plan: FaultPlan,
    ) -> Result<Vec<ChaosReport>, Divergence> {
        let mut reports = Vec::new();
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            reports.push(run_schedule_chaos(seed, &cfg, plan)?);
        }
        Ok(reports)
    }

    /// One passed read-mostly chaos schedule.
    #[derive(Clone, Debug)]
    pub struct RoChaosReport {
        /// The read-mostly measurements.
        pub report: RoStressReport,
        /// Fault actions injected across all worker threads.
        pub injected: u64,
        /// Attempts torn down by a panic unwinding through the runtime.
        pub panic_aborts: u64,
    }

    /// [`run_schedule_ro`] under fault injection: the same promotion
    /// programs and both read-mostly oracles, with every worker thread
    /// armed. Injected panics are classified exactly as in
    /// [`run_schedule_chaos`]; a reader whose attempt committed but whose
    /// snapshot was carried away by a post-commit panic just loses its
    /// sample (readers register no handlers, so this is a defensive path).
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] when either oracle disagrees — under chaos
    /// that means a fault unwound the fast lane or the promotion path into
    /// an inconsistent state.
    pub fn run_schedule_ro_chaos(
        seed: u64,
        cfg: &StressConfig,
        plan: FaultPlan,
    ) -> Result<RoChaosReport, Divergence> {
        assert!(cfg.threads > 0 && cfg.cells > 0 && cfg.txns_per_thread > 0);
        silence_injected_panics();
        let rt = TmRuntime::builder()
            .algorithm(cfg.algorithm)
            .serial_lock(cfg.serial_lock)
            .contention_manager(cfg.contention)
            .build();
        let init = initial_values(seed, cfg.cells);
        let heap = ro_heap(&init);
        let ticket = TCell::new(0u64);

        let mut round_rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x0107));
        let per_round = round_rng.gen_range(1usize..5);
        let rounds = cfg.txns_per_thread.div_ceil(per_round);
        let barrier = Barrier::new(cfg.threads);

        let before = rt.stats();
        let mut writes: Vec<(u64, usize, usize)> = Vec::new();
        let mut snaps: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut injected = 0u64;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let rt = &rt;
                let heap = &heap;
                let ticket = &ticket;
                let barrier = &barrier;
                handles.push(s.spawn(move || {
                    fault::arm_thread(mix_seed(seed, 0xFA07 + t as u64), plan);
                    let mut my_writes = Vec::new();
                    let mut my_snaps = Vec::new();
                    let mut stagger =
                        SplitMix64::seed_from_u64(mix_seed(seed, 0x57A6 + t as u64));
                    let tk_cell = Cell::new(u64::MAX);
                    for r in 0..rounds {
                        barrier.wait();
                        for _ in 0..stagger.gen_range(0u32..64) {
                            std::hint::spin_loop();
                        }
                        let lo = r * per_round;
                        let hi = ((r + 1) * per_round).min(cfg.txns_per_thread);
                        for j in lo..hi {
                            let split = ro_range_split(seed, t, j, heap.len());
                            if ro_txn_promotes(seed, t, j) {
                                let pre = ro_pre_reads(seed, t, j, cfg);
                                let ops = txn_program(seed, t, j, cfg);
                                let with_handlers =
                                    mix_seed(mix_seed(seed, 0x4A0D + t as u64), j as u64) & 3
                                        == 0;
                                let tk = loop {
                                    let _ = tm::take_thread_tally();
                                    tk_cell.set(u64::MAX);
                                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                                        rt.atomic_ro(|tx| {
                                            let mut sink = 0u64;
                                            for &i in &pre {
                                                sink = sink.wrapping_add(heap_read(tx, heap, i)?);
                                            }
                                            std::hint::black_box(sink);
                                            let tk = tx.fetch_add(ticket, 1)?;
                                            tk_cell.set(tk);
                                            if with_handlers {
                                                tx.on_commit(|| {});
                                                tx.on_abort(|| {});
                                            }
                                            for &op in &ops {
                                                apply_tx_ranges(tx, heap, op, split)?;
                                            }
                                            Ok(tk)
                                        })
                                    }));
                                    match attempt {
                                        Ok(tk) => break tk,
                                        Err(_injected_panic) => {
                                            if tm::take_thread_tally().commits > 0 {
                                                break tk_cell.get();
                                            }
                                        }
                                    }
                                };
                                my_writes.push((tk, t, j));
                            } else {
                                let obs = loop {
                                    let _ = tm::take_thread_tally();
                                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                                        rt.atomic_ro(|tx| {
                                            let snap = heap_snapshot(tx, heap, split)?;
                                            Ok((tx.read(ticket)?, snap))
                                        })
                                    }));
                                    match attempt {
                                        Ok(o) => break Some(o),
                                        Err(_injected_panic) => {
                                            if tm::take_thread_tally().commits > 0 {
                                                break None;
                                            }
                                        }
                                    }
                                };
                                if let Some(o) = obs {
                                    my_snaps.push(o);
                                }
                            }
                        }
                    }
                    let hits = fault::injected_count();
                    fault::disarm_thread();
                    (my_writes, my_snaps, hits)
                }));
            }
            for h in handles {
                let (w, sn, hits) =
                    h.join().expect("read-mostly chaos worker escaped its catch_unwind");
                writes.extend(w);
                snaps.extend(sn);
                injected += hits;
            }
        });
        let stats = rt.stats().since(&before);

        let checked = check_ro_oracle(
            seed,
            cfg,
            init,
            &heap,
            &ticket,
            writes,
            snaps,
            false,
            "[ro-chaos] ",
        )?;
        if stats.ro_fast_commits == 0 || stats.ro_promotions == 0 {
            return Err(Divergence {
                seed,
                combo: cfg.combo(),
                detail: format!(
                    "[ro-chaos] schedule failed to exercise the fast lane: \
                     {} fast commits, {} promotions",
                    stats.ro_fast_commits, stats.ro_promotions
                ),
            });
        }
        Ok(RoChaosReport {
            report: RoStressReport {
                report: StressReport {
                    combo: cfg.combo(),
                    commits: stats.commits,
                    aborts: stats.aborts,
                    silent_elisions: stats.silent_store_elisions,
                    config_switches: stats.config_switches,
                },
                ro_fast_commits: stats.ro_fast_commits,
                ro_promotions: stats.ro_promotions,
                snapshot_extensions: stats.snapshot_extensions,
                snapshots_checked: checked,
            },
            injected,
            panic_aborts: stats.panic_aborts,
        })
    }

    /// [`run_schedule_ro_chaos`] across every [`combos`] combination.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Divergence`].
    pub fn run_matrix_ro_chaos(
        seed: u64,
        base: &StressConfig,
        plan: FaultPlan,
    ) -> Result<Vec<RoChaosReport>, Divergence> {
        let mut reports = Vec::new();
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                ..base.clone()
            };
            reports.push(run_schedule_ro_chaos(seed, &cfg, plan)?);
        }
        Ok(reports)
    }
}

/// Every runtime combination the stress harness exercises.
/// `SerializeAfter` requires the serial lock, so it is only paired with
/// [`SerialLockMode::ReaderWriter`]; the other managers run under both
/// modes.
pub fn combos() -> Vec<(Algorithm, SerialLockMode, ContentionManager)> {
    let mut v = Vec::new();
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for cm in [
            ContentionManager::GCC_DEFAULT,
            ContentionManager::None,
            ContentionManager::Backoff { max_shift: 8 },
            ContentionManager::HOURGLASS_128,
        ] {
            v.push((algo, SerialLockMode::ReaderWriter, cm));
        }
        for cm in [
            ContentionManager::None,
            ContentionManager::Backoff { max_shift: 8 },
            ContentionManager::HOURGLASS_128,
        ] {
            v.push((algo, SerialLockMode::None, cm));
        }
    }
    v
}

/// Runs [`run_schedule`] for `seed` across every [`combos`] combination,
/// stopping at the first divergence.
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix(seed: u64, base: &StressConfig) -> Result<Vec<StressReport>, Divergence> {
    let mut reports = Vec::new();
    for (algorithm, serial_lock, contention) in combos() {
        let cfg = StressConfig {
            algorithm,
            serial_lock,
            contention,
            ..base.clone()
        };
        reports.push(run_schedule(seed, &cfg)?);
    }
    Ok(reports)
}

/// Runs [`run_schedule_switching`] for `seed` across every [`combos`]
/// combination, stopping at the first divergence. The 12 serial-locked
/// combinations must each cross at least one live switch; the 9
/// lock-free ones prove the refusal path instead.
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix_switching(
    seed: u64,
    base: &StressConfig,
) -> Result<Vec<StressReport>, Divergence> {
    let mut reports = Vec::new();
    for (algorithm, serial_lock, contention) in combos() {
        let cfg = StressConfig {
            algorithm,
            serial_lock,
            contention,
            ..base.clone()
        };
        reports.push(run_schedule_switching(seed, &cfg)?);
    }
    Ok(reports)
}

/// Runs [`run_schedule_wh`] for `seed` across every [`combos`]
/// combination, stopping at the first divergence (including a combination
/// that elided nothing).
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix_wh(seed: u64, base: &StressConfig) -> Result<Vec<StressReport>, Divergence> {
    let mut reports = Vec::new();
    for (algorithm, serial_lock, contention) in combos() {
        let cfg = StressConfig {
            algorithm,
            serial_lock,
            contention,
            ..base.clone()
        };
        reports.push(run_schedule_wh(seed, &cfg)?);
    }
    Ok(reports)
}

// ---------------------------------------------------------------------------
// Contended-commit schedules: disjoint write sets, shared commit machinery.
// ---------------------------------------------------------------------------

/// A passed contended-commit schedule's measurements.
#[derive(Clone, Debug)]
pub struct ContendedReport {
    /// The ordinary measurements.
    pub report: StressReport,
    /// Distinct clock shards the worker threads mapped onto.
    pub shards_used: usize,
    /// Commit/rollback ticks per clock shard at the end of the schedule.
    pub shard_ticks: Vec<u64>,
    /// Same-shard clock CAS retries summed across shards.
    pub clock_cas_retries: u64,
}

/// The shard-stat divergence oracle for contended schedules: every clock
/// shard that a worker thread was pinned to must show commit ticks — a
/// silent shard means per-shard attribution broke (a worker's commits
/// were counted against somebody else's cache line, or not at all).
/// NOrec commits through the sequence lock, never the sharded clock, so
/// the check is skipped there.
fn check_shard_divergence(
    seed: u64,
    cfg: &StressConfig,
    worker_shards: &[usize],
    shard_stats: &[ClockShardStats],
    tag: &str,
) -> Result<(), Divergence> {
    if matches!(cfg.algorithm, Algorithm::Norec) {
        return Ok(());
    }
    for &k in worker_shards {
        if shard_stats[k].ticks == 0 {
            return Err(Divergence {
                seed,
                combo: cfg.combo(),
                detail: format!(
                    "{tag}worker pinned to clock shard {k} committed {} transactions \
                     but the shard's tick counter never moved — per-shard stats \
                     diverged from thread affinity",
                    cfg.txns_per_thread
                ),
            });
        }
    }
    Ok(())
}

fn contended_report(
    report: StressReport,
    mut worker_shards: Vec<usize>,
    shard_stats: Vec<ClockShardStats>,
) -> ContendedReport {
    worker_shards.sort_unstable();
    worker_shards.dedup();
    ContendedReport {
        report,
        shards_used: worker_shards.len(),
        clock_cas_retries: shard_stats.iter().map(|s| s.cas_retries).sum(),
        shard_ticks: shard_stats.into_iter().map(|s| s.ticks).collect(),
    }
}

/// Runs one **contended-commit** barrier-stepped schedule
/// ([`contended_txn_program`]): worker write sets are disjoint blocks, so
/// the threads fight over the ticket cell and the commit machinery —
/// clock shards, orec stripes, the NOrec seqlock — instead of data. On
/// top of the ticket oracle, the per-shard clock stats must attribute
/// commit ticks to every shard the workers actually ran on
/// ([`check_shard_divergence`]).
///
/// # Errors
///
/// Returns [`Divergence`] on model disagreement or broken shard
/// attribution.
pub fn run_schedule_contended(seed: u64, cfg: &StressConfig) -> Result<ContendedReport, Divergence> {
    let (report, worker_shards, shard_stats) =
        run_schedule_impl(seed, cfg, false, contended_txn_program, false)?;
    check_shard_divergence(seed, cfg, &worker_shards, &shard_stats, "")?;
    Ok(contended_report(report, worker_shards, shard_stats))
}

/// Runs [`run_schedule_contended`] for `seed` across every [`combos`]
/// combination, stopping at the first divergence.
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix_contended(
    seed: u64,
    base: &StressConfig,
) -> Result<Vec<ContendedReport>, Divergence> {
    let mut reports = Vec::new();
    for (algorithm, serial_lock, contention) in combos() {
        let cfg = StressConfig {
            algorithm,
            serial_lock,
            contention,
            ..base.clone()
        };
        reports.push(run_schedule_contended(seed, &cfg)?);
    }
    Ok(reports)
}

// ---------------------------------------------------------------------------
// Read-mostly schedules: promotion coverage for the read-only fast lane.
// ---------------------------------------------------------------------------

/// Whether transaction `txn` of thread `thread` in the read-mostly schedule
/// writes. A seed-derived quarter do — they enter through `atomic_ro` like
/// everyone else and promote mid-flight at their first write; the other
/// three quarters stay pure fast-lane readers end to end.
pub fn ro_txn_promotes(seed: u64, thread: usize, txn: usize) -> bool {
    mix_seed(mix_seed(seed, 0x6904 + thread as u64), txn as u64) & 3 == 0
}

/// The cells a promoter reads *before* its promoting write. These populate
/// the read log while the attempt is still on the fast lane, so the
/// promoted commit must carry them over and revalidate them like any other
/// read.
pub fn ro_pre_reads(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0x9E4D + thread as u64),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(1usize..4);
    (0..n).map(|_| rng.gen_range(0..cfg.cells)).collect()
}

/// Where transaction `txn` of thread `thread` in the read-mostly schedule
/// splits its byte ranges: a promoter writes each cell as the byte ranges
/// `..k` and `k..` (0..=8, so most writes are two read-merged partial
/// words), a reader snapshots the heap as two ranges cut at `k` bytes.
fn ro_range_split(seed: u64, thread: usize, txn: usize, heap_bytes: usize) -> usize {
    let r = mix_seed(mix_seed(seed, 0x5917 + thread as u64), txn as u64) as usize;
    if ro_txn_promotes(seed, thread, txn) {
        r % 9
    } else {
        r % (heap_bytes + 1)
    }
}

/// Reads cell `i` of a read-mostly heap (backing word `i`) as one byte
/// range.
fn heap_read<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    heap: &'env TBytes,
    i: usize,
) -> Result<u64, Abort> {
    let mut b = [0u8; 8];
    tx.read_bytes(heap, i * 8, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes cell `i` as the byte ranges `..split` and `split..`.
fn heap_write<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    heap: &'env TBytes,
    i: usize,
    v: u64,
    split: usize,
) -> Result<(), Abort> {
    let b = v.to_le_bytes();
    tx.write_bytes(heap, i * 8, &b[..split])?;
    tx.write_bytes(heap, i * 8 + split, &b[split..])
}

/// [`apply_tx`] over a byte-range heap.
fn apply_tx_ranges<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    heap: &'env TBytes,
    op: StressOp,
    split: usize,
) -> Result<(), Abort> {
    let (dst, v) = match op {
        StressOp::Write(i, v) => (i, v),
        StressOp::Add(i, d) => (i, heap_read(tx, heap, i)?.wrapping_add(d)),
        StressOp::Copy(a, b) => (b, heap_read(tx, heap, a)?),
        StressOp::Mix(a, b) => (b, mix_values(heap_read(tx, heap, a)?, heap_read(tx, heap, b)?)),
    };
    heap_write(tx, heap, dst, v, split)
}

/// A reader's snapshot of the whole heap: two byte ranges cut at `cut`.
fn heap_snapshot<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    heap: &'env TBytes,
    cut: usize,
) -> Result<Vec<u64>, Abort> {
    let mut bytes = vec![0u8; heap.len()];
    tx.read_bytes(heap, 0, &mut bytes[..cut])?;
    tx.read_bytes(heap, cut, &mut bytes[cut..])?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte cell")))
        .collect())
}

/// The read-mostly schedules' heap: cell `i` is backing word `i`.
fn ro_heap(init: &[u64]) -> TBytes {
    let bytes: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
    TBytes::from_slice(&bytes)
}

/// A passed read-mostly schedule's measurements.
#[derive(Clone, Debug)]
pub struct RoStressReport {
    /// The ordinary measurements; `commits` covers readers and promoters.
    pub report: StressReport,
    /// Committed transactions that held the read-only fast lane to the end.
    pub ro_fast_commits: u64,
    /// Attempts that entered read-only and promoted at their first write.
    pub ro_promotions: u64,
    /// Snapshot extensions the runtime performed during the schedule.
    pub snapshot_extensions: u64,
    /// Reader snapshots validated against the ticket-ordered model prefix.
    pub snapshots_checked: u64,
}

/// Runs one barrier-stepped **read-mostly** schedule: every transaction
/// begins on the read-only fast lane (`atomic_ro`); a seed-derived quarter
/// promote mid-flight by taking a ticket and writing, the rest snapshot the
/// ticket cell plus the whole heap without ever leaving the fast lane.
/// The heap is one [`TBytes`] reached only through byte ranges. Readers
/// snapshot it as two `read_bytes` ranges cut at a seed-derived byte,
/// before reading the ticket. Promoters read cells as 8-byte ranges and
/// write each cell as two `write_bytes` ranges split inside the word
/// (`ro_range_split`). So the engines' range accessors and the
/// partial-word read-merge carry the whole schedule.
///
/// Two oracles run:
///
/// * **Promoters** — the usual ticket oracle: committed tickets must be
///   exactly `0..n`, and replaying the promoted programs in ticket order
///   must land on the final heap. This proves reads accumulated *before*
///   the promotion are still validated by the full commit.
/// * **Readers** — snapshot position: a fast-lane reader that observed
///   ticket value `t` serialized after exactly the promoters holding
///   tickets `0..t`, so its snapshot must equal the model replayed through
///   that prefix. A stale snapshot extension, a torn read, or a write
///   leaking from an uncommitted promoter all break the equality.
///
/// # Errors
///
/// Returns [`Divergence`] — carrying the replay seed — when either oracle
/// disagrees, or when the schedule failed to exercise the fast lane at all
/// (zero fast commits / zero promotions).
pub fn run_schedule_ro(seed: u64, cfg: &StressConfig) -> Result<RoStressReport, Divergence> {
    run_schedule_ro_impl(seed, cfg, false)
}

/// [`run_schedule_ro`] with the same deliberate bug as
/// [`run_schedule_sabotaged`]: one update to cell 0 is dropped from the
/// model, so the schedule must diverge — proof the read-mostly oracle has
/// teeth and replays from its printed seed.
#[doc(hidden)]
pub fn run_schedule_ro_sabotaged(
    seed: u64,
    cfg: &StressConfig,
) -> Result<RoStressReport, Divergence> {
    run_schedule_ro_impl(seed, cfg, true)
}

fn run_schedule_ro_impl(
    seed: u64,
    cfg: &StressConfig,
    sabotage: bool,
) -> Result<RoStressReport, Divergence> {
    assert!(cfg.threads > 0 && cfg.cells > 0 && cfg.txns_per_thread > 0);
    let rt = TmRuntime::builder()
        .algorithm(cfg.algorithm)
        .serial_lock(cfg.serial_lock)
        .contention_manager(cfg.contention)
        .build();
    let init = initial_values(seed, cfg.cells);
    let heap = ro_heap(&init);
    let ticket = TCell::new(0u64);

    let mut round_rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x0107));
    let per_round = round_rng.gen_range(1usize..5);
    let rounds = cfg.txns_per_thread.div_ceil(per_round);
    let barrier = Barrier::new(cfg.threads);

    let before = rt.stats();
    let mut writes: Vec<(u64, usize, usize)> = Vec::new();
    let mut snaps: Vec<(u64, Vec<u64>)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let rt = &rt;
            let heap = &heap;
            let ticket = &ticket;
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                let mut my_writes = Vec::new();
                let mut my_snaps = Vec::new();
                let mut stagger = SplitMix64::seed_from_u64(mix_seed(seed, 0x57A6 + t as u64));
                for r in 0..rounds {
                    barrier.wait();
                    for _ in 0..stagger.gen_range(0u32..64) {
                        std::hint::spin_loop();
                    }
                    let lo = r * per_round;
                    let hi = ((r + 1) * per_round).min(cfg.txns_per_thread);
                    for j in lo..hi {
                        let split = ro_range_split(seed, t, j, heap.len());
                        if ro_txn_promotes(seed, t, j) {
                            let pre = ro_pre_reads(seed, t, j, cfg);
                            let ops = txn_program(seed, t, j, cfg);
                            let tk = rt.atomic_ro(|tx| {
                                // Fast-lane reads first: they must survive
                                // the promotion and be revalidated.
                                let mut sink = 0u64;
                                for &i in &pre {
                                    sink = sink.wrapping_add(heap_read(tx, heap, i)?);
                                }
                                std::hint::black_box(sink);
                                // First write of the attempt: promotes.
                                let tk = tx.fetch_add(ticket, 1)?;
                                for &op in &ops {
                                    apply_tx_ranges(tx, heap, op, split)?;
                                }
                                Ok(tk)
                            });
                            my_writes.push((tk, t, j));
                        } else {
                            my_snaps.push(rt.atomic_ro(|tx| {
                                // Heap first, ticket last: only the range
                                // reads' own log entries can catch a
                                // commit landing mid-snapshot.
                                let snap = heap_snapshot(tx, heap, split)?;
                                Ok((tx.read(ticket)?, snap))
                            }));
                        }
                    }
                }
                (my_writes, my_snaps)
            }));
        }
        for h in handles {
            let (w, sn) = h.join().expect("read-mostly stress worker panicked");
            writes.extend(w);
            snaps.extend(sn);
        }
    });
    let stats = rt.stats().since(&before);

    let checked =
        check_ro_oracle(seed, cfg, init, &heap, &ticket, writes, snaps, sabotage, "[ro] ")?;
    if stats.ro_fast_commits == 0 || stats.ro_promotions == 0 {
        return Err(Divergence {
            seed,
            combo: cfg.combo(),
            detail: format!(
                "read-mostly schedule failed to exercise the fast lane: \
                 {} fast commits, {} promotions",
                stats.ro_fast_commits, stats.ro_promotions
            ),
        });
    }
    Ok(RoStressReport {
        report: StressReport {
            combo: cfg.combo(),
            commits: stats.commits,
            aborts: stats.aborts,
            silent_elisions: stats.silent_store_elisions,
            config_switches: stats.config_switches,
        },
        ro_fast_commits: stats.ro_fast_commits,
        ro_promotions: stats.ro_promotions,
        snapshot_extensions: stats.snapshot_extensions,
        snapshots_checked: checked,
    })
}

/// The read-mostly oracle, shared by the plain and chaos variants: ticket
/// contiguity for promoters, prefix-equality for reader snapshots, final
/// heap vs sequential model. Returns how many reader snapshots were
/// checked.
#[allow(clippy::too_many_arguments)]
fn check_ro_oracle(
    seed: u64,
    cfg: &StressConfig,
    init: Vec<u64>,
    heap: &TBytes,
    ticket: &TCell<u64>,
    mut writes: Vec<(u64, usize, usize)>,
    mut snaps: Vec<(u64, Vec<u64>)>,
    sabotage: bool,
    tag: &str,
) -> Result<u64, Divergence> {
    let diverge = |detail: String| Divergence {
        seed,
        combo: cfg.combo(),
        detail,
    };

    let total = writes.len();
    writes.sort_unstable();
    for (expect, &(tk, t, j)) in writes.iter().enumerate() {
        if tk != expect as u64 {
            return Err(diverge(format!(
                "{tag}ticket sequence broken at position {expect}: got ticket {tk} \
                 (thread {t}, txn {j}) — lost or duplicated promoted write"
            )));
        }
    }
    if ticket.load_direct() != total as u64 {
        return Err(diverge(format!(
            "{tag}ticket cell ended at {} after {} promoted transactions",
            ticket.load_direct(),
            total
        )));
    }

    // Replay promoters in ticket order; each reader snapshot must equal
    // the model exactly at its observed prefix.
    let check_at = |model: &[u64], tk: u64, snap: &[u64]| -> Result<(), Divergence> {
        for (i, (&got, &want)) in snap.iter().zip(model).enumerate() {
            if got != want {
                return Err(Divergence {
                    seed,
                    combo: cfg.combo(),
                    detail: format!(
                        "{tag}fast-lane reader at ticket {tk}: cell {i} read {got:#x} \
                         but the serial prefix says {want:#x} — stale or torn snapshot"
                    ),
                });
            }
        }
        Ok(())
    };
    snaps.sort_by(|a, b| a.0.cmp(&b.0));
    let mut model = init;
    let mut ri = 0usize;
    let mut checked = 0u64;
    for (k, &(_tk, t, j)) in writes.iter().enumerate() {
        while ri < snaps.len() && snaps[ri].0 <= k as u64 {
            check_at(&model, snaps[ri].0, &snaps[ri].1)?;
            checked += 1;
            ri += 1;
        }
        for op in txn_program(seed, t, j, cfg) {
            apply_model(&mut model, op);
        }
    }
    while ri < snaps.len() {
        let tk = snaps[ri].0;
        if tk > total as u64 {
            return Err(diverge(format!(
                "{tag}fast-lane reader observed ticket {tk} but only {total} were issued"
            )));
        }
        check_at(&model, tk, &snaps[ri].1)?;
        checked += 1;
        ri += 1;
    }

    if sabotage {
        model[0] = model[0].wrapping_add(1);
    }
    for (i, &want) in model.iter().enumerate() {
        let actual = heap.load_word_direct(i);
        if actual != want {
            return Err(diverge(format!(
                "{tag}cell {i}: concurrent result {actual:#x} != sequential model {:#x}",
                model[i]
            )));
        }
    }
    Ok(checked)
}

/// Runs [`run_schedule_ro`] for `seed` across every [`combos`] combination,
/// stopping at the first divergence.
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix_ro(seed: u64, base: &StressConfig) -> Result<Vec<RoStressReport>, Divergence> {
    let mut reports = Vec::new();
    for (algorithm, serial_lock, contention) in combos() {
        let cfg = StressConfig {
            algorithm,
            serial_lock,
            contention,
            ..base.clone()
        };
        reports.push(run_schedule_ro(seed, &cfg)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_schedule_passes_on_every_combo() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 25,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = run_matrix(0xA5A5, &base).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        for r in &reports {
            assert_eq!(r.commits, 3 * 25, "{}", r.combo);
        }
    }

    #[test]
    fn schedules_actually_contend() {
        // With few cells, long transactions, and every thread fighting
        // over the ticket cell, some algorithm must abort sometimes —
        // otherwise the harness is not stressing anything.
        let mut aborts = 0;
        for algorithm in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let cfg = StressConfig {
                threads: 8,
                cells: 2,
                txns_per_thread: 300,
                max_ops_per_txn: 10,
                algorithm,
                contention: ContentionManager::None,
                ..StressConfig::smoke()
            };
            for seed in 0..3 {
                aborts += run_schedule(seed, &cfg).unwrap_or_else(|d| panic!("{d}")).aborts;
            }
        }
        assert!(aborts > 0, "no aborts across 9 contended schedules");
    }

    #[test]
    fn programs_are_pure_functions_of_the_seed() {
        let cfg = StressConfig::smoke();
        assert_eq!(txn_program(9, 2, 17, &cfg), txn_program(9, 2, 17, &cfg));
        assert_ne!(txn_program(9, 2, 17, &cfg), txn_program(10, 2, 17, &cfg));
        assert_ne!(txn_program(9, 2, 17, &cfg), txn_program(9, 3, 17, &cfg));
        assert_eq!(wh_txn_program(9, 2, 17, &cfg), wh_txn_program(9, 2, 17, &cfg));
        assert_ne!(wh_txn_program(9, 2, 17, &cfg), wh_txn_program(10, 2, 17, &cfg));
        assert_eq!(
            contended_txn_program(9, 2, 17, &cfg),
            contended_txn_program(9, 2, 17, &cfg)
        );
        assert_ne!(
            contended_txn_program(9, 2, 17, &cfg),
            contended_txn_program(10, 2, 17, &cfg)
        );
    }

    /// The contended programs really are write-disjoint: every mutation's
    /// destination lands in the issuing thread's own block, across a
    /// sample large enough to draw all four operation arms.
    #[test]
    fn contended_programs_write_only_their_own_block() {
        let cfg = StressConfig {
            threads: 4,
            cells: 8,
            ..StressConfig::smoke()
        };
        let block = cfg.cells / cfg.threads;
        let mut cross_reads = 0usize;
        for t in 0..cfg.threads {
            for j in 0..60 {
                for op in contended_txn_program(0xC0, t, j, &cfg) {
                    let (src, dst) = match op {
                        StressOp::Write(i, _) | StressOp::Add(i, _) => (None, i),
                        StressOp::Copy(a, b) | StressOp::Mix(a, b) => (Some(a), b),
                    };
                    assert!(
                        (t * block..(t + 1) * block).contains(&dst),
                        "thread {t} writes cell {dst} outside its block"
                    );
                    if src.is_some_and(|a| !(t * block..(t + 1) * block).contains(&a)) {
                        cross_reads += 1;
                    }
                }
            }
        }
        assert!(cross_reads > 0, "no cross-block reads drawn — validation has no edges");
    }

    /// The packed programs write only their own round-robin cells, and a
    /// 64-byte block of cells holds words of every thread.
    #[test]
    fn packed_programs_write_only_their_own_words() {
        let cfg = StressConfig {
            threads: 4,
            cells: 16,
            ..StressConfig::smoke()
        };
        let mut writers = vec![Vec::new(); cfg.cells];
        let mut cross_reads = 0usize;
        for t in 0..cfg.threads {
            for j in 0..60 {
                for op in packed_txn_program(0xB1, t, j, &cfg) {
                    let (src, dst) = match op {
                        StressOp::Write(i, _) | StressOp::Add(i, _) => (None, i),
                        StressOp::Copy(a, b) | StressOp::Mix(a, b) => (Some(a), b),
                    };
                    assert_eq!(dst % cfg.threads, t, "thread {t} writes cell {dst}");
                    writers[dst].push(t);
                    if src.is_some_and(|a| a % cfg.threads != t) {
                        cross_reads += 1;
                    }
                }
            }
        }
        for block in writers.chunks(8) {
            let mut threads: Vec<usize> = block.iter().flatten().copied().collect();
            threads.sort_unstable();
            threads.dedup();
            assert_eq!(threads, vec![0, 1, 2, 3], "a block of cells lacks some thread's words");
        }
        assert!(cross_reads > 0, "no cross-thread reads drawn — validation has no edges");
        assert_eq!(packed_txn_program(9, 2, 17, &cfg), packed_txn_program(9, 2, 17, &cfg));
        assert_ne!(packed_txn_program(9, 2, 17, &cfg), packed_txn_program(10, 2, 17, &cfg));
    }

    /// Threads writing distinct words of shared blocks: all 21 combos pass
    /// the ticket oracle.
    #[test]
    fn packed_schedule_passes_on_every_combo() {
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                threads: 4,
                cells: 16,
                txns_per_thread: 40,
                ..StressConfig::smoke()
            };
            let r = run_schedule_packed(0xB10C, &cfg).unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(r.commits, 4 * 40, "{}", r.combo);
        }
    }

    /// The packed-block schedule under fire on all 21 combos.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_packed_schedule_passes_ticket_oracle() {
        let mut injected = 0;
        for (algorithm, serial_lock, contention) in combos() {
            let cfg = StressConfig {
                algorithm,
                serial_lock,
                contention,
                threads: 4,
                cells: 16,
                txns_per_thread: 30,
                ..StressConfig::smoke()
            };
            let r = chaos::run_schedule_packed_chaos(0xB1C4, &cfg, chaos::default_plan())
                .unwrap_or_else(|d| panic!("{d}"));
            injected += r.injected;
        }
        assert!(injected > 0, "chaos packed schedule injected no faults");
    }

    /// The contended matrix: all 21 combos pass the ticket oracle with
    /// disjoint write sets, and on the orec-based algorithms the per-shard
    /// clock stats attribute ticks to every shard the workers ran on (the
    /// run itself diverges if not — asserted again here for the report
    /// values).
    #[test]
    fn contended_matrix_passes_on_every_combo() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 25,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = run_matrix_contended(0xC047, &base).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        for r in &reports {
            assert_eq!(r.report.commits, 3 * 25, "{}", r.report.combo);
            assert!(r.shards_used >= 1, "{}", r.report.combo);
            if !r.report.combo.starts_with("norec") {
                assert!(
                    r.shard_ticks.iter().sum::<u64>() > 0,
                    "{}: no commit ticks recorded on any clock shard",
                    r.report.combo
                );
            }
        }
    }

    /// Commit-path contention under fire: all 21 combos pass the ticket
    /// oracle on disjoint write sets while faults rain on the commit-tick
    /// CAS loop, and shard attribution survives.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_contended_matrix_passes_ticket_oracle() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 20,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = chaos::run_matrix_contended_chaos(0xC4A0, &base, chaos::default_plan())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        assert!(injected > 0, "chaos contended schedule injected no faults");
        for r in &reports {
            if !r.report.report.combo.starts_with("norec") {
                assert!(
                    r.report.shard_ticks.iter().sum::<u64>() > 0,
                    "{}: no commit ticks recorded on any clock shard",
                    r.report.report.combo
                );
            }
        }
    }

    /// The write-heavy matrix: all 21 combos pass the ticket oracle, and
    /// every combo really elided silent stores (the run itself diverges
    /// if not — asserted again here for the report values).
    #[test]
    fn write_heavy_matrix_elides_on_every_combo() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 25,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = run_matrix_wh(0x3717, &base).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        for r in &reports {
            assert_eq!(r.commits, 3 * 25, "{}", r.combo);
            assert!(r.silent_elisions > 0, "{}", r.combo);
        }
    }

    /// The write-heavy programs really do manufacture silent stores:
    /// self-copies and duplicated constant writes appear across any
    /// reasonable sample of programs.
    #[test]
    fn write_heavy_programs_contain_manufactured_silent_stores() {
        let cfg = StressConfig::smoke();
        let mut self_copies = 0;
        let mut dup_writes = 0;
        for t in 0..4 {
            for j in 0..60 {
                let ops = wh_txn_program(0xFEED, t, j, &cfg);
                self_copies += ops
                    .iter()
                    .filter(|op| matches!(op, StressOp::Copy(a, b) if a == b))
                    .count();
                dup_writes += ops
                    .windows(2)
                    .filter(|w| matches!(w, [StressOp::Write(a, x), StressOp::Write(b, y)] if a == b && x == y))
                    .count();
            }
        }
        assert!(self_copies > 0, "no self-copies drawn");
        assert!(dup_writes > 0, "no duplicated constant writes drawn");
    }

    /// Elision under fire: all 21 combos pass the ticket oracle on
    /// write-heavy programs while faults rain on the write path, and the
    /// elisions still happen.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_write_heavy_matrix_passes_ticket_oracle() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 20,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = chaos::run_matrix_wh_chaos(0x3A17, &base, chaos::default_plan())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        assert!(injected > 0, "chaos write-heavy schedule injected no faults");
        for r in &reports {
            assert!(r.report.silent_elisions > 0, "{}", r.report.combo);
        }
    }

    /// The acceptance criterion's scratch-branch check, kept as a real
    /// test: with a bug injected (one lost update to cell 0), the harness
    /// must diverge, and replaying the printed seed must diverge again at
    /// the same place.
    #[test]
    fn injected_bug_reproduces_from_its_seed() {
        let cfg = StressConfig::smoke();
        let seed = 0x5EED;
        let first = run_schedule_sabotaged(seed, &cfg)
            .expect_err("sabotaged model must diverge");
        assert_eq!(first.seed, seed, "divergence must carry the replay seed");
        assert!(first.to_string().contains("--seed 0x5eed"), "{first}");
        assert!(first.detail.starts_with("cell 0:"), "{first}");
        let replay = run_schedule_sabotaged(first.seed, &cfg)
            .expect_err("replaying the printed seed must diverge again");
        assert_eq!(replay.combo, first.combo);
        assert!(replay.detail.starts_with("cell 0:"), "{replay}");
        // And the clean harness passes the very same schedule.
        run_schedule(seed, &cfg).unwrap_or_else(|d| panic!("{d}"));
    }

    /// The adaptive acceptance check: all 21 combos pass the ticket
    /// oracle while a controller thread switches the algorithm and
    /// contention manager out from under the load. Serial-locked combos
    /// must cross at least one live switch; lock-free combos must refuse
    /// every attempt.
    #[test]
    fn switching_matrix_passes_ticket_oracle() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 80,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = run_matrix_switching(0x5117C4, &base).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        for r in &reports {
            assert_eq!(r.commits, 3 * 80, "{}", r.combo);
            if r.combo.contains("nolock") {
                assert_eq!(r.config_switches, 0, "{}", r.combo);
            } else {
                assert!(r.config_switches >= 1, "{}", r.combo);
            }
        }
    }

    /// Switching under fire: all 21 combos pass the ticket oracle with
    /// live algorithm/CM switches AND injected faults landing in the
    /// same schedules.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_switching_matrix_passes_ticket_oracle() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 40,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = chaos::run_matrix_switching_chaos(0x5117C5, &base, chaos::default_plan())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        assert!(injected > 0, "chaos switching schedule injected no faults");
        let switched: u64 = reports.iter().map(|r| r.report.config_switches).sum();
        assert!(switched > 0, "chaos switching schedule never switched");
    }

    /// The chaos acceptance check: with panics, spurious aborts, and
    /// delays injected at every fault site, all 21 combos still pass the
    /// ticket oracle and the sequential model — and the faults really
    /// fired.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_matrix_passes_ticket_oracle() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 20,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = chaos::run_matrix_chaos(0xC4A05, &base, chaos::default_plan())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        let panic_aborts: u64 = reports.iter().map(|r| r.panic_aborts).sum();
        assert!(injected > 0, "chaos schedule injected no faults at all");
        assert!(
            panic_aborts > 0,
            "chaos schedule never exercised the unwind path \
             ({injected} faults injected, none were panics)"
        );
    }

    /// A disabled plan makes chaos mode equivalent to the plain schedule:
    /// zero injections, full commits.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_with_disabled_plan_injects_nothing() {
        let cfg = StressConfig {
            threads: 2,
            txns_per_thread: 15,
            ..StressConfig::smoke()
        };
        let r = chaos::run_schedule_chaos(0xD15A, &cfg, tm::fault::FaultPlan::disabled())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(r.injected, 0);
        assert_eq!(r.panic_aborts, 0);
        assert_eq!(r.report.commits, 2 * 15);
    }

    /// The read-mostly matrix: all 21 combos pass both oracles, every
    /// combo really commits on the fast lane, really promotes, and really
    /// position-checks reader snapshots.
    #[test]
    fn read_mostly_matrix_promotes_on_every_combo() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 25,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = run_matrix_ro(0xB0B0, &base).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        for r in &reports {
            assert_eq!(r.report.commits, 3 * 25, "{}", r.report.combo);
            assert!(r.ro_fast_commits > 0, "{}", r.report.combo);
            assert!(r.ro_promotions > 0, "{}", r.report.combo);
            assert!(r.snapshots_checked > 0, "{}", r.report.combo);
        }
    }

    /// The read-mostly oracle has teeth: a lost update to cell 0 diverges,
    /// replays from its printed seed, and the clean harness passes the
    /// identical schedule.
    #[test]
    fn read_mostly_injected_bug_reproduces_from_its_seed() {
        let cfg = StressConfig::smoke();
        let seed = 0x0D0;
        let first = run_schedule_ro_sabotaged(seed, &cfg)
            .expect_err("sabotaged read-mostly model must diverge");
        assert_eq!(first.seed, seed);
        assert!(first.detail.contains("cell 0"), "{first}");
        let replay = run_schedule_ro_sabotaged(first.seed, &cfg)
            .expect_err("replaying the printed seed must diverge again");
        assert_eq!(replay.combo, first.combo);
        run_schedule_ro(seed, &cfg).unwrap_or_else(|d| panic!("{d}"));
    }

    /// Promotion under fire: all 21 combos pass both read-mostly oracles
    /// while faults rain on the fast lane and the promotion path.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_read_mostly_matrix_passes_both_oracles() {
        let base = StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread: 20,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        };
        let reports = chaos::run_matrix_ro_chaos(0x2EAD, &base, chaos::default_plan())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(reports.len(), combos().len());
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        assert!(injected > 0, "chaos read-mostly schedule injected no faults");
        let promotions: u64 = reports.iter().map(|r| r.report.ro_promotions).sum();
        let checked: u64 = reports.iter().map(|r| r.report.snapshots_checked).sum();
        assert!(promotions > 0 && checked > 0);
    }

    #[test]
    fn matrix_covers_all_serial_modes_and_managers() {
        let c = combos();
        assert_eq!(c.len(), 21);
        assert!(c.iter().any(|&(_, sl, _)| sl == SerialLockMode::None));
        assert!(c
            .iter()
            .any(|&(_, _, cm)| cm == ContentionManager::HOURGLASS_128));
        // SerializeAfter never runs without the serial lock.
        assert!(c.iter().all(|&(_, sl, cm)| !matches!(
            (sl, cm),
            (SerialLockMode::None, ContentionManager::SerializeAfter(_))
        )));
    }
}
