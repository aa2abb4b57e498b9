//! Zero-allocation guards for the write path: the magazine SET fast lane
//! and the redo-log append.
//!
//! ISSUE 5's acceptance criterion: once a worker's slab magazine is warm,
//! a steady-state overwrite SET must perform **no heap allocation at
//! all** — not in the cache layer (magazine pop, item init, hash relink),
//! not in tmstd (the snprintf clones render into stack buffers), and not
//! in the STM (log arenas are reused across transactions). A counting
//! global allocator proves it the hard way.

use mcache::{Branch, McCache, McConfig, SlabConfig, Stage, StoreStatus};
use testkit::alloc::thread_allocs;

#[global_allocator]
static ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

fn config() -> McConfig {
    McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 2,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 8,
        hash_power_max: 8, // no expansion mid-measurement
        item_lock_power: 6,
        magazine: 32,
        lru_bump_every: 0,
        ..Default::default()
    }
}

#[test]
fn warm_magazine_sets_never_allocate() {
    let c = McCache::start(config());

    // Warm everything the hot path touches: the worker magazine (one
    // refill), the reusable STM log arenas, and the stats shards. An
    // overwrite SET recycles its own chunk, so steady state never goes
    // back to the shared freelist.
    let mut value = [7u8; 64];
    for i in 0..300u32 {
        value[0] = i as u8;
        assert_eq!(c.set(0, b"hot-key", &value, 0, 0), StoreStatus::Stored);
    }

    let before = thread_allocs();
    for i in 0..100u32 {
        value[0] = i as u8;
        let st = c.set(0, b"hot-key", &value, 0, 0);
        debug_assert_eq!(st, StoreStatus::Stored);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state SET on a warm magazine must be allocation-free"
    );

    // The values really landed.
    let v = c.get(0, b"hot-key").unwrap();
    assert_eq!(v.data[0], 99);
    assert!(v.data[1..].iter().all(|&b| b == 7));
}

#[test]
fn plain_transactional_sets_do_allocate_without_magazines() {
    // Control arm: with the magazine off, the same workload goes through
    // the 3-transaction freelist path, which is not allocation-free.
    // This keeps the zero-alloc test honest — if the counter were broken,
    // both tests would pass vacuously.
    let mut cfg = config();
    cfg.magazine = 0;
    let c = McCache::start(cfg);
    let mut value = [7u8; 64];
    for i in 0..300u32 {
        value[0] = i as u8;
        assert_eq!(c.set(0, b"hot-key", &value, 0, 0), StoreStatus::Stored);
    }
    let before = thread_allocs();
    for i in 0..100u32 {
        value[0] = i as u8;
        c.set(0, b"hot-key", &value, 0, 0);
    }
    // GETs allocate their return Vec either way; make sure the counter
    // itself moves on this thread.
    let _ = c.get(0, b"hot-key");
    assert!(thread_allocs() > before, "counting allocator must be live");
}

#[test]
fn steady_state_redo_log_append_never_allocates() {
    use mcache::dur::{DurLog, Record};
    use mcache::DurFsync;
    let dir = std::env::temp_dir().join(format!("mcache-append-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One segment holds every append below: rotation (a new file name)
    // is not the steady state.
    let log = DurLog::open(&dir, DurFsync::Off, 64 << 20, 0).unwrap();
    let rec = Record::Set {
        cas: 1,
        flags: 0,
        abs_exp: 0,
        stored_unix: 0,
        key: b"append-key".to_vec(),
        value: vec![9u8; 1024],
    };
    // The first append sizes the writer's frame buffer.
    log.append(1, &rec);
    let before = thread_allocs();
    for stamp in 2..202 {
        log.append(stamp, &rec);
    }
    let allocs = thread_allocs() - before;
    assert!(!log.is_failed());
    assert_eq!(log.stats().snapshot().appends, 201);
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(allocs, 0, "a steady-state append must be allocation-free");
}
