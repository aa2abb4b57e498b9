//! Compile-time layout facts for the false-sharing-sensitive structures.
//!
//! The contention story of this runtime rests on three structures being
//! exactly cache-line shaped: commit-clock shards (each committer CASes
//! only its own line), orec stripes (unrelated data blocks never share an
//! orec line), and the NOrec seqlock (alone on its line). The definitions
//! carry in-source `const` assertions; these public constants re-export
//! the measured layout so the `layout_guard` integration test — and any
//! downstream crate padding its own per-thread slots — can pin them from
//! outside without access to the private types.

use crate::clock::{ClockShard, SeqLock};
use crate::orec::{OrecStripe, BLOCK_BYTES};

/// The cache-line size every padded structure in this crate targets.
pub const CACHE_LINE: usize = 64;

/// Holds a value on 64-byte blocks of its own. One orec covers one block
/// (`tm::orec`), so a transactional word that every read touches must not
/// share a block with a word that every write updates: each commit of the
/// writer would abort the readers. Wrapping either side in `OwnBlock`
/// keeps them apart, and off each other's cache line too.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct OwnBlock<T>(pub T);

const _: () = assert!(std::mem::align_of::<OwnBlock<u8>>() == BLOCK_BYTES, "OwnBlock must start an orec block");

impl<T> std::ops::Deref for OwnBlock<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Size in bytes of one commit-clock shard (timestamp + telemetry).
pub const CLOCK_SHARD_SIZE: usize = std::mem::size_of::<ClockShard>();

/// Alignment of one commit-clock shard.
pub const CLOCK_SHARD_ALIGN: usize = std::mem::align_of::<ClockShard>();

/// Size in bytes of one orec stripe (a full cache line of orecs).
pub const OREC_STRIPE_SIZE: usize = std::mem::size_of::<OrecStripe>();

/// Alignment of one orec stripe.
pub const OREC_STRIPE_ALIGN: usize = std::mem::align_of::<OrecStripe>();

/// Size in bytes of the NOrec sequence lock.
pub const SEQLOCK_SIZE: usize = std::mem::size_of::<SeqLock>();

/// Alignment of the NOrec sequence lock.
pub const SEQLOCK_ALIGN: usize = std::mem::align_of::<SeqLock>();
