//! Live-reconfiguration contract: `TmRuntime::switch_config` swaps the
//! algorithm and contention manager under concurrent load without losing
//! updates, without letting commit stamps regress across the swap, and
//! refusing to run at all when the serial lock (its quiesce mechanism)
//! is compiled out.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use tm::{
    last_commit_stamp, Algorithm, ContentionManager, SerialLockMode, SwitchError, TCell, TmRuntime,
    Transaction,
};

const ALGOS: [Algorithm; 3] = [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec];

#[test]
fn switch_reports_change_and_noop() {
    let rt = TmRuntime::builder().algorithm(Algorithm::Eager).build();
    assert_eq!(
        rt.switch_config(Algorithm::Eager, ContentionManager::GCC_DEFAULT),
        Ok(false),
        "same config must be a no-op"
    );
    assert_eq!(
        rt.switch_config(Algorithm::Norec, ContentionManager::None),
        Ok(true)
    );
    assert_eq!(rt.algorithm(), Algorithm::Norec);
    assert_eq!(rt.contention_manager(), ContentionManager::None);
    assert_eq!(rt.stats().config_switches, 1);
    // CM-only change still counts as a switch (no time-base realign needed).
    assert_eq!(
        rt.switch_config(Algorithm::Norec, ContentionManager::Hourglass(32)),
        Ok(true)
    );
    assert_eq!(rt.stats().config_switches, 2);
}

#[test]
fn switch_requires_serial_lock() {
    let rt = TmRuntime::builder()
        .algorithm(Algorithm::Eager)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build();
    assert_eq!(
        rt.switch_config(Algorithm::Norec, ContentionManager::None),
        Err(SwitchError::NoSerialLock)
    );
    assert_eq!(rt.algorithm(), Algorithm::Eager, "config must be untouched");
}

/// Every algorithm→algorithm edge (including via norec, whose time base is
/// the seqlock, not the sharded clock): commit stamps observed in external
/// lock order never regress across a switch, and no increment is lost.
#[test]
fn stamps_monotone_and_counts_exact_across_all_switch_edges() {
    for from in ALGOS {
        for to in ALGOS {
            if from == to {
                continue;
            }
            let rt = TmRuntime::builder().algorithm(from).build();
            let c = TCell::new(0u64);
            let lock: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let switched = AtomicBool::new(false);
            std::thread::scope(|s| {
                let rt = &rt;
                let c = &c;
                let lock = &lock;
                let switched = &switched;
                for _ in 0..3 {
                    s.spawn(move || {
                        for i in 0..128u32 {
                            let mut log = lock.lock().unwrap();
                            rt.atomic(|tx| tx.fetch_add(c, 1));
                            log.push(last_commit_stamp());
                            drop(log);
                            if i == 64 && !switched.swap(true, Ordering::Relaxed) {
                                rt.switch_config(to, ContentionManager::Backoff { max_shift: 4 })
                                    .unwrap();
                            }
                        }
                    });
                }
            });
            assert_eq!(rt.atomic(|tx| tx.read(&c)), 3 * 128, "{from}->{to}");
            assert_eq!(rt.algorithm(), to);
            let log = lock.into_inner().unwrap();
            for w in log.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "{from}->{to}: stamp regressed across switch: {} then {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// A writer committing after `observation_stamp()` returns must mint a
/// strictly larger stamp — the property the cache's hot-key publication
/// relies on — including when a switch lands between the two.
#[test]
fn observation_stamp_below_later_writers_across_switch() {
    for from in ALGOS {
        for to in ALGOS {
            let rt = TmRuntime::builder().algorithm(from).build();
            let c = TCell::new(0u64);
            rt.atomic(|tx| tx.write(&c, 1));
            let obs = rt.observation_stamp();
            rt.switch_config(to, ContentionManager::GCC_DEFAULT).unwrap();
            rt.atomic(|tx| tx.write(&c, 2));
            let w = last_commit_stamp();
            assert!(
                w > obs,
                "{from}->{to}: writer stamp {w} not above observation {obs}"
            );
        }
    }
}

/// Hammer switches from a dedicated thread while workers run mixed
/// read/write transactions: nothing deadlocks, reads are consistent,
/// and the final tally is exact. The workers start only once the first
/// switch has landed, so the storm cannot miss them.
#[test]
fn switch_storm_under_mixed_load() {
    let rt = TmRuntime::builder().algorithm(Algorithm::Eager).build();
    let cells: Vec<TCell<u64>> = (0..8).map(|_| TCell::new(0)).collect();
    let first_switch = Barrier::new(4);
    let running = AtomicUsize::new(3);
    let switches = AtomicU64::new(0);
    std::thread::scope(|s| {
        let rt = &rt;
        let cells = &cells[..];
        let first_switch = &first_switch;
        let running = &running;
        let switches = &switches;
        for w in 0..3usize {
            s.spawn(move || {
                first_switch.wait();
                for i in 0..400u64 {
                    if (i + w as u64) % 4 == 0 {
                        // Read-only sweep: all cells move together below.
                        let (a, b) =
                            rt.atomic(|tx| Ok((tx.read(&cells[0])?, tx.read(&cells[0])?)));
                        assert_eq!(a, b);
                    } else {
                        rt.atomic(|tx| {
                            let k = (i as usize + w) % cells.len();
                            tx.fetch_add(&cells[k], 1)
                        });
                    }
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        s.spawn(move || {
            // The first plan differs from the built configuration, so the
            // first call switches and releases the workers.
            let plans = [
                (Algorithm::Lazy, ContentionManager::None),
                (Algorithm::Norec, ContentionManager::Backoff { max_shift: 3 }),
                (Algorithm::Eager, ContentionManager::Hourglass(16)),
                (Algorithm::Eager, ContentionManager::GCC_DEFAULT),
            ];
            let mut k = 0usize;
            while k == 0 || running.load(Ordering::Acquire) > 0 {
                let (a, cm) = plans[k % plans.len()];
                if rt.switch_config(a, cm).unwrap() && switches.fetch_add(1, Ordering::Relaxed) == 0 {
                    first_switch.wait();
                }
                k += 1;
                std::thread::yield_now();
            }
        });
    });
    let expected: u64 = (0..3u64)
        .map(|w| (0..400u64).filter(|i| (i + w) % 4 != 0).count() as u64)
        .sum();
    let total: u64 = cells.iter().map(|c| rt.atomic(|tx| tx.read(c))).sum();
    assert_eq!(total, expected, "increments lost across switch storm");
    assert!(
        switches.load(Ordering::Relaxed) > 0,
        "storm never actually switched"
    );
    assert_eq!(rt.stats().config_switches, switches.load(Ordering::Relaxed));
}
