//! The global ownership-record (orec) table.
//!
//! Like GCC libitm's `ml_wt` method group, conflict detection is mediated by
//! a fixed-size table of versioned write-locks. Every transactional word
//! hashes (by address) to one orec; writers lock the orec for the duration
//! of their ownership, readers record the orec's version and revalidate.
//!
//! # Encoding
//!
//! An orec is a single `u64`:
//!
//! * `version << 1` (even) — unlocked, last committed at `version`;
//! * `(owner_tx_id << 1) | 1` (odd) — locked by the transaction with that id.
//!
//! # Granularity and striping
//!
//! One orec covers one 64-byte *data block* (`addr >> 6`), as libitm's
//! `ml_wt` maps each 32-byte granule to one orec. A range access then
//! samples, logs and locks one orec per block instead of one per word.
//!
//! The table is organized as cache-line *stripes* of [`ORECS_PER_STRIPE`]
//! orecs each. The hash is stripe-aware: the 512-byte *region* an address
//! belongs to (`addr >> 9`) picks the stripe, and the block's position
//! inside its region (`(addr >> 6) & 7`) picks the slot within the stripe.
//! Two consequences:
//!
//! * Blocks of **unrelated** regions land on unrelated stripes, so a
//!   committer's lock CAS never invalidates the orec line under readers of
//!   a different region.
//! * The 8 blocks of **one** region sit on consecutive slots of one orec
//!   line, so a range read or write of up to 512 bytes touches a single
//!   orec line, and commit-time lock runs have spatial locality.
//!
//! The price is false conflicts between unrelated words that share a
//! block: a reader of one word aborts when a writer commits a neighbour.
//! Data that every read touches is therefore kept off the blocks that
//! every write touches (see `mcache`'s padded globals).
//!
//! Per-stripe conflict counters live in a separate allocation (off the
//! orec lines, so bumping one is not itself false sharing) and feed the
//! `orec_stripe_conflicts` stat.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw orec value.
pub type OrecValue = u64;

/// Bytes of data covered by one orec: a 64-byte block.
pub const BLOCK_BYTES: usize = 64;

/// Orecs per stripe: one 64-byte cache line of 8-byte orecs.
pub const ORECS_PER_STRIPE: usize = 8;

/// Returns `true` if the orec value is locked by some transaction.
#[inline]
pub fn is_locked(v: OrecValue) -> bool {
    v & 1 == 1
}

/// Extracts the owner transaction id from a locked orec value.
#[inline]
pub fn owner_of(v: OrecValue) -> u64 {
    debug_assert!(is_locked(v));
    v >> 1
}

/// Extracts the commit version from an unlocked orec value.
#[inline]
pub fn version_of(v: OrecValue) -> u64 {
    debug_assert!(!is_locked(v));
    v >> 1
}

/// Builds the locked encoding for a transaction id.
#[inline]
pub fn locked_by(tx_id: u64) -> OrecValue {
    (tx_id << 1) | 1
}

/// Builds the unlocked encoding for a version.
#[inline]
pub fn unlocked_at(version: u64) -> OrecValue {
    version << 1
}

/// One cache line of orecs. Aligned and sized to exactly 64 bytes so
/// stripe boundaries coincide with cache-line boundaries — the property
/// the whole anti-false-sharing argument rests on (and which the layout
/// guard test pins).
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct OrecStripe([AtomicU64; ORECS_PER_STRIPE]);

const _: () = assert!(std::mem::size_of::<OrecStripe>() == 64, "OrecStripe must fill one cache line");
const _: () = assert!(std::mem::align_of::<OrecStripe>() == 64, "OrecStripe must start a cache line");

/// The table of ownership records shared by all transactions of one
/// [`crate::TmRuntime`].
///
/// The table size trades false conflicts for memory; the default of 2^16
/// entries matches the scale of the memcached reproduction's working set.
/// Entries are grouped into cache-line stripes ([`OrecStripe`]), so a
/// table costs 8 bytes per orec plus 8 bytes per stripe of telemetry.
pub struct OrecTable {
    stripes: Box<[OrecStripe]>,
    /// Per-stripe conflict tallies, deliberately a separate allocation so
    /// the counters never share a line with the orecs they describe.
    conflicts: Box<[AtomicU64]>,
    stripe_mask: usize,
}

impl OrecTable {
    /// Default log2 of table size.
    pub const DEFAULT_LOG_SIZE: u32 = 16;

    /// Creates a table with `1 << log_size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is less than 3 (one full stripe) or greater
    /// than 28.
    pub fn new(log_size: u32) -> Self {
        assert!(
            (3..=28).contains(&log_size),
            "orec table log_size {log_size} out of range 3..=28"
        );
        let nstripes = 1usize << (log_size - 3);
        OrecTable {
            stripes: (0..nstripes).map(|_| OrecStripe::default()).collect(),
            conflicts: (0..nstripes).map(|_| AtomicU64::new(0)).collect(),
            stripe_mask: nstripes - 1,
        }
    }

    /// Number of orecs in the table.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn len(&self) -> usize {
        self.stripes.len() * ORECS_PER_STRIPE
    }

    /// Whether the table is empty (never true for a constructed table).
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Number of stripes in the table.
    #[inline]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Maps a word address to its orec index: one orec per 64-byte data
    /// block. The 512-byte region picks the stripe (Fibonacci-hashed so
    /// unrelated regions spread across the table) and the block's offset
    /// inside its region picks the slot — same-block words share one orec,
    /// and a region's 8 blocks fill one orec line.
    #[inline]
    pub fn index_of(&self, addr: usize) -> usize {
        let h = (addr >> 9).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let stripe = (h >> 24) & self.stripe_mask;
        let slot = (addr >> 6) & (ORECS_PER_STRIPE - 1);
        stripe * ORECS_PER_STRIPE + slot
    }

    /// Loads the orec at `idx`.
    #[inline]
    pub fn load(&self, idx: usize) -> OrecValue {
        self.stripes[idx / ORECS_PER_STRIPE].0[idx % ORECS_PER_STRIPE].load(Ordering::Acquire)
    }

    /// Attempts to CAS the orec at `idx` from `current` to `new`.
    #[inline]
    pub fn try_update(&self, idx: usize, current: OrecValue, new: OrecValue) -> bool {
        self.stripes[idx / ORECS_PER_STRIPE].0[idx % ORECS_PER_STRIPE]
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Unconditionally stores `new` at `idx`. Only the lock owner may call
    /// this (release paths).
    #[inline]
    pub fn release(&self, idx: usize, new: OrecValue) {
        self.stripes[idx / ORECS_PER_STRIPE].0[idx % ORECS_PER_STRIPE]
            .store(new, Ordering::Release);
    }

    /// Records a conflict observed at orec `idx` against its stripe.
    /// Called on the abort edges (locked-by-other, version mismatch), not
    /// on the happy path.
    #[inline]
    pub fn note_conflict(&self, idx: usize) {
        self.conflicts[idx / ORECS_PER_STRIPE].fetch_add(1, Ordering::Relaxed);
    }

    /// Total conflicts recorded across all stripes.
    pub fn conflict_total(&self) -> u64 {
        self.conflicts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Per-stripe conflict tallies.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn stripe_conflicts(&self) -> Vec<u64> {
        self.conflicts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

impl fmt::Debug for OrecTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrecTable")
            .field("len", &self.len())
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        let l = locked_by(42);
        assert!(is_locked(l));
        assert_eq!(owner_of(l), 42);
        let u = unlocked_at(7);
        assert!(!is_locked(u));
        assert_eq!(version_of(u), 7);
    }

    #[test]
    fn fresh_table_is_unlocked_version_zero() {
        let t = OrecTable::new(4);
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
        assert_eq!(t.stripe_count(), 2);
        for i in 0..t.len() {
            let v = t.load(i);
            assert!(!is_locked(v));
            assert_eq!(version_of(v), 0);
        }
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let t = OrecTable::new(8);
        let addr = 0xdead_beef_usize & !7;
        let i1 = t.index_of(addr);
        let i2 = t.index_of(addr);
        assert_eq!(i1, i2);
        assert!(i1 < t.len());
    }

    #[test]
    fn same_block_words_share_one_orec() {
        let t = OrecTable::new(10);
        let base = 0x4_0040usize; // block-aligned
        for w in 0..8 {
            assert_eq!(
                t.index_of(base + w * 8),
                t.index_of(base),
                "word {w} left the block's orec"
            );
        }
        assert_ne!(
            t.index_of(base + 64),
            t.index_of(base),
            "the next block must get its own orec"
        );
    }

    #[test]
    fn region_blocks_share_a_stripe_on_distinct_slots() {
        let t = OrecTable::new(10);
        let base = 0x4_0000usize; // region-aligned
        let idxs: Vec<usize> = (0..8).map(|b| t.index_of(base + b * 64)).collect();
        let stripe = idxs[0] / ORECS_PER_STRIPE;
        for (b, &i) in idxs.iter().enumerate() {
            assert_eq!(i / ORECS_PER_STRIPE, stripe, "block {b} left the stripe");
            assert_eq!(i % ORECS_PER_STRIPE, b, "block {b} is not on its own slot");
        }
    }

    #[test]
    fn unrelated_regions_scatter_across_stripes() {
        let t = OrecTable::new(10);
        let stripes: Vec<usize> = (0..16)
            .map(|r| t.index_of(0x1000 + r * 512) / ORECS_PER_STRIPE)
            .collect();
        let mut sorted = stripes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() > 8, "region hash must scatter stripes, got {sorted:?}");
    }

    #[test]
    fn cas_lock_and_release() {
        let t = OrecTable::new(4);
        let idx = 3;
        let before = t.load(idx);
        assert!(t.try_update(idx, before, locked_by(9)));
        assert!(!t.try_update(idx, before, locked_by(10)), "stale CAS must fail");
        assert_eq!(owner_of(t.load(idx)), 9);
        t.release(idx, unlocked_at(5));
        assert_eq!(version_of(t.load(idx)), 5);
    }

    #[test]
    fn conflicts_tally_against_the_stripe() {
        let t = OrecTable::new(4);
        assert_eq!(t.conflict_total(), 0);
        t.note_conflict(0);
        t.note_conflict(3); // same stripe as 0
        t.note_conflict(8); // second stripe
        assert_eq!(t.conflict_total(), 3);
        assert_eq!(t.stripe_conflicts(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_log_size_rejected() {
        let _ = OrecTable::new(0);
    }
}
