//! Layout guard: pins the cache-line geometry the contention design
//! depends on, so a refactor (a new telemetry field, a dropped
//! `repr(align)`) cannot silently reintroduce false sharing.
//!
//! The real guards are `const` assertions next to the type definitions —
//! they fail the *build*, not the test run. This test re-checks the same
//! facts through `tm::layout` so the contract is visible (and grep-able)
//! from outside the crate, and exercises the runtime-facing invariants the
//! consts cannot see: that a built runtime actually fans its shards and
//! stripes out at the advertised granularity.

use tm::layout;
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime};

#[test]
fn clock_shards_are_exactly_one_cache_line() {
    // One committer's CAS must never invalidate another shard's line: a
    // shard fills its line completely (size) and starts on a line
    // boundary (align). If a field is ever added that pushes the struct
    // past 64 bytes, the in-source const assert stops the build before
    // this test runs.
    assert_eq!(layout::CLOCK_SHARD_SIZE, layout::CACHE_LINE);
    assert_eq!(layout::CLOCK_SHARD_ALIGN, layout::CACHE_LINE);
}

#[test]
fn orec_stripes_are_exactly_one_cache_line() {
    // The stripe-aware hash puts same-block words on one stripe and
    // unrelated blocks on others; that only isolates coherence traffic if
    // stripe boundaries coincide with cache-line boundaries.
    assert_eq!(layout::OREC_STRIPE_SIZE, layout::CACHE_LINE);
    assert_eq!(layout::OREC_STRIPE_ALIGN, layout::CACHE_LINE);
}

#[test]
fn seqlock_owns_its_cache_line() {
    // NOrec's hottest word: it must at least not share a line with the
    // clock shards or stats counters on top of its true contention.
    assert_eq!(layout::SEQLOCK_ALIGN, layout::CACHE_LINE);
    assert!(layout::SEQLOCK_SIZE <= layout::CACHE_LINE);
}

#[test]
fn own_block_values_get_a_block_of_their_own() {
    // One orec covers one 64-byte block: a padded word must neither
    // start mid-block nor leave room for a neighbour in its block.
    type Padded = layout::OwnBlock<TCell<u64>>;
    assert_eq!(std::mem::align_of::<Padded>(), 64);
    assert_eq!(std::mem::size_of::<Padded>(), 64);
    let pair = [layout::OwnBlock(TCell::new(1u64)), layout::OwnBlock(TCell::new(2u64))];
    let a = pair[0].word() as *const _ as usize;
    let b = pair[1].word() as *const _ as usize;
    assert_ne!(a / 64, b / 64, "two padded words share a block");
}

#[test]
fn built_runtime_exposes_the_advertised_fanout() {
    let rt = TmRuntime::builder()
        .algorithm(Algorithm::Eager)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .clock_shards(8)
        .orec_log_size(6)
        .build();
    assert_eq!(rt.clock_shards(), 8);
    assert_eq!(rt.clock_shard_stats().len(), 8);
    // 2^6 orecs at 8 per stripe → 8 stripes of conflict telemetry.
    assert_eq!(rt.orec_stripe_count(), 8);
    assert_eq!(rt.orec_stripe_conflicts().len(), 8);
    // Thread affinity is a real shard index.
    assert!(rt.current_thread_shard() < 8);
}

#[test]
#[should_panic(expected = "power of two")]
fn non_power_of_two_clock_shards_rejected_at_build() {
    let _ = TmRuntime::builder().clock_shards(6).build();
}

#[test]
#[should_panic(expected = "power of two")]
fn oversized_clock_shards_rejected_at_build() {
    let _ = TmRuntime::builder().clock_shards(128).build();
}
