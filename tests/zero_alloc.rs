//! Steady-state transactions must not allocate.
//!
//! The per-thread log arena keeps read-set, write-set, undo/redo buffers,
//! the open-addressed write-map, and the handler vectors alive across
//! retries and across transactions on the same thread — cleared, never
//! freed. After a short warmup that sizes every buffer, a committing
//! transaction of the same shape performs **zero** heap allocations, for
//! every algorithm. The counting allocator in `testkit::alloc` proves it.

use tm::{Algorithm, ContentionManager, SerialLockMode, TBytes, TCell, TmRuntime, Transaction};

#[global_allocator]
static COUNTING_ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

fn runtime(algo: Algorithm) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

/// Allocations per transaction over `n` runs of `txn`, after `warmup`
/// runs that are allowed to grow buffers.
fn allocs_per_txn(warmup: u32, n: u64, mut txn: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        txn();
    }
    let before = testkit::alloc::thread_allocs();
    for _ in 0..n {
        txn();
    }
    testkit::alloc::thread_allocs() - before
}

fn assert_zero_alloc_steady_state(algo: Algorithm) {
    let rt = runtime(algo);

    // Small lock-acquire-shaped transaction: stays on the inline
    // write-set scan (≤ 8 writes).
    let cells: Vec<TCell<u64>> = (0..4).map(TCell::new).collect();
    let small = allocs_per_txn(50, 200, || {
        rt.atomic(|tx| {
            for c in &cells {
                let v = tx.read(c)?;
                tx.write(c, v + 1)?;
            }
            Ok(())
        });
    });
    assert_eq!(small, 0, "{algo:?}: small txn allocated");

    // Bulk-copy transaction: 256B = 32 word writes, which spills the
    // write-set onto the open-addressed map — sized during warmup, then
    // generation-cleared, never reallocated.
    let payload = [0x42u8; 256];
    let dst = TBytes::zeroed(256);
    let mut out = [0u8; 256];
    let bulk = allocs_per_txn(50, 200, || {
        rt.atomic(|tx| {
            tx.write_bytes(&dst, 0, &payload)?;
            tx.read_bytes(&dst, 0, &mut out)?;
            Ok(())
        });
    });
    assert_eq!(bulk, 0, "{algo:?}: bulk txn allocated");

    // 1 KiB ranges at an unaligned offset: one engine call per range,
    // staged through the arena's word buffer (grown during warmup, then
    // reused) with read-merged head and tail words.
    let big = TBytes::zeroed(1040);
    let mut src = [0u8; 1024];
    let mut dst = [0u8; 1024];
    let mut round = 0u8;
    let ranges = allocs_per_txn(50, 200, || {
        round = round.wrapping_add(1);
        src.fill(round);
        rt.atomic(|tx| tx.write_bytes(&big, 3, &src));
        rt.atomic_ro(|tx| tx.read_bytes(&big, 3, &mut dst));
    });
    assert_eq!(ranges, 0, "{algo:?}: 1 KiB range txns allocated");
    assert_eq!(dst, src);

    // Commit handlers: the boxed-closure backing storage is recycled, but
    // each registration necessarily boxes its closure — assert the count
    // is exactly that one box and nothing else.
    let counter = TCell::new(0u64);
    let with_handler = allocs_per_txn(50, 200, || {
        rt.atomic(|tx| {
            tx.fetch_add(&counter, 1)?;
            tx.on_commit(|| {});
            Ok(())
        });
    });
    assert!(
        with_handler <= 200,
        "{algo:?}: handler txns allocated {with_handler} times over 200 \
         txns (expected at most the one closure box per registration)"
    );
}

#[test]
fn eager_steady_state_commits_without_allocating() {
    assert_zero_alloc_steady_state(Algorithm::Eager);
}

#[test]
fn lazy_steady_state_commits_without_allocating() {
    assert_zero_alloc_steady_state(Algorithm::Lazy);
}

#[test]
fn norec_steady_state_commits_without_allocating() {
    assert_zero_alloc_steady_state(Algorithm::Norec);
}

/// Retries reuse the same arena: a transaction that aborts several times
/// before committing allocates nothing once warm.
#[test]
fn retry_path_reuses_arena() {
    use std::cell::Cell;
    let rt = runtime(Algorithm::Lazy);
    let cell = TCell::new(0u64);
    let attempts = Cell::new(0u32);
    let run = || {
        attempts.set(0);
        rt.atomic(|tx| {
            attempts.set(attempts.get() + 1);
            let v = tx.read(&cell)?;
            if attempts.get() < 3 {
                // Force a retry through the user-abort path.
                return Err(tm::Abort::Conflict);
            }
            tx.write(&cell, v + 1)?;
            Ok(())
        });
    };
    let allocs = allocs_per_txn(20, 100, run);
    assert_eq!(allocs, 0, "retrying txns allocated once warm");
}
