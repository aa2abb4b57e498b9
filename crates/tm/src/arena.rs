//! Per-thread, retry-reusable log arenas.
//!
//! Before this module existed, every transaction *attempt* allocated fresh
//! `Vec` read/write logs plus a `std::collections::HashMap` write-map, and
//! dropped them on commit or abort — so the hot path paid the allocator and
//! SipHash on every attempt, drowning the algorithmic differences the
//! paper's §4 measures (the redo-log tax of Lazy/NOrec on `memcpy`-heavy
//! transactions) in constant-factor noise.
//!
//! The arena fixes the constant factor without touching semantics:
//!
//! * [`LogBufs`] owns every per-attempt log (read set, redo log, held-lock
//!   list, undo log) plus the [`WriteMap`]. Buffers are **cleared, never
//!   freed** between attempts, and returned to a thread-local slot between
//!   transactions, so a steady-state transaction performs zero heap
//!   allocations.
//! * [`WriteMap`] replaces the `HashMap<usize, usize>` redo-log index: an
//!   open-addressed, linear-probing table over a power-of-two slab, with
//!   generation-stamped slots (clearing is a counter bump, not a memset).
//!   Transactions with at most [`SMALL_WRITES`] distinct writes — the tiny
//!   IP lock-acquire transactions that dominate the paper's Table 1 — never
//!   touch the table at all: the redo log itself is scanned inline.
//! * `onCommit`/`onAbort` handler vectors keep their backing storage across
//!   retries *and* across transactions (the `'env`-erased allocation is
//!   cached while empty; see [`Arena::take_handler_vec`]).

use std::cell::Cell;
use std::fmt;

/// Write-set size up to which the redo log is scanned inline instead of
/// consulting the [`WriteMap`]. Eight entries cover the paper's small
/// transactions (item-lock acquire/release touches 1–2 words) while a
/// linear scan still fits in a couple of cache lines.
pub(crate) const SMALL_WRITES: usize = 8;

/// Read-set size up to which the read log is scanned inline for the
/// duplicate-read check, mirroring [`SMALL_WRITES`].
pub(crate) const SMALL_READS: usize = 8;

/// One slot of the open-addressed write-map. `gen` stamps liveness: a slot
/// whose generation differs from the table's is vacant, which makes
/// clearing O(1).
#[derive(Clone, Copy, Default)]
struct Slot {
    gen: u32,
    idx: u32,
    addr: usize,
}

/// Open-addressed `word address -> redo-log index` map: linear probing over
/// a power-of-two slab, generation-stamped clearing, grow-on-spill.
pub(crate) struct WriteMap {
    slots: Box<[Slot]>,
    mask: usize,
    len: usize,
    gen: u32,
}

impl Default for WriteMap {
    fn default() -> Self {
        WriteMap::new()
    }
}

impl WriteMap {
    const INITIAL_SLOTS: usize = 64;

    pub(crate) fn new() -> Self {
        WriteMap {
            slots: Box::default(),
            mask: 0,
            len: 0,
            gen: 1,
        }
    }

    /// Fibonacci hash over the raw key, high bits folded into the probe
    /// start. The key is a word address for the write map and NOrec's read
    /// map but an **orec index** for eager/lazy read maps — so no
    /// alignment pre-shift here: stripping low bits would collapse eight
    /// consecutive orec indices into one probe cluster, and the multiply
    /// mixes zeroed alignment bits fine on its own.
    #[inline]
    fn probe_start(&self, addr: usize) -> usize {
        let h = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 24) & self.mask
    }

    /// Looks up the redo-log index recorded for `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: usize) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                return None;
            }
            if s.addr == addr {
                return Some(s.idx as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Records `addr -> idx`. The caller must have checked `addr` is absent
    /// (the redo log keeps one entry per address).
    pub(crate) fn insert(&mut self, addr: usize, idx: usize) {
        if self.len + 1 > self.slots.len() / 4 * 3 {
            self.grow();
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    idx: idx as u32,
                    addr,
                };
                self.len += 1;
                return;
            }
            debug_assert_ne!(s.addr, addr, "WriteMap::insert of a present address");
            i = (i + 1) & self.mask;
        }
    }

    /// Single-probe lookup-or-insert: returns the index already recorded
    /// for `addr`, or records `addr -> idx` in the vacant slot the probe
    /// ended on and returns `None`. One probe sequence where a
    /// [`WriteMap::get`] miss followed by [`WriteMap::insert`] would pay
    /// two — the spilled read path does this once per read.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, addr: usize, idx: usize) -> Option<usize> {
        if self.len + 1 > self.slots.len() / 4 * 3 {
            self.grow();
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    idx: idx as u32,
                    addr,
                };
                self.len += 1;
                return None;
            }
            if s.addr == addr {
                return Some(s.idx as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Populates the table from a log (the spill path when a transaction
    /// outgrows the inline scan). A key logged twice maps to its first
    /// entry: the redo log never repeats a key, but range reads append to
    /// the read log without the duplicate check.
    pub(crate) fn rebuild(&mut self, log: &[(usize, u64)]) {
        self.clear();
        for (idx, &(key, _)) in log.iter().enumerate() {
            self.get_or_insert(key, idx);
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot::default(); new_cap].into_boxed_slice(),
        );
        let old_gen = self.gen;
        self.mask = new_cap - 1;
        self.gen = 1;
        self.len = 0;
        for s in old.iter().filter(|s| s.gen == old_gen) {
            self.insert(s.addr, s.idx as usize);
        }
    }

    /// Empties the table in O(1) by bumping the generation stamp.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        if self.gen == u32::MAX {
            self.slots.iter_mut().for_each(|s| *s = Slot::default());
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for WriteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteMap")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The per-attempt log buffers, shared by all three engines. Which fields
/// an engine uses (and what the `u64` payload means) differs per
/// algorithm; the arena only cares that all of them are `(usize, u64)`
/// pairs whose storage is worth keeping.
#[derive(Debug, Default)]
pub(crate) struct LogBufs {
    /// Read set: eager/lazy record `(orec index, observed OrecValue)`,
    /// NOrec records `(word address, value read)`.
    pub(crate) reads: Vec<(usize, u64)>,
    /// Redo log in program order, one entry per distinct address:
    /// `(word address, buffered value)`. Unused by eager.
    pub(crate) writes: Vec<(usize, u64)>,
    /// Eager: orec locks held `(orec index, pre-lock value)`. Lazy: the
    /// commit-time held-lock scratch list. Unused by NOrec.
    pub(crate) locks: Vec<(usize, u64)>,
    /// Eager's undo log `(word address, previous value)`. Unused by the
    /// buffered engines.
    pub(crate) undo: Vec<(usize, u64)>,
    /// Redo-log index for [`LogBufs::writes`] past the inline window.
    pub(crate) wmap: WriteMap,
    /// Read-set index for [`LogBufs::reads`] past the inline window, keyed
    /// the same way as the read log (orec index or word address).
    pub(crate) rmap: WriteMap,
    /// Duplicate reads absorbed by the read-set index this attempt; flushed
    /// into `TmStats::read_log_dedup_hits` when the attempt ends.
    pub(crate) dedup_hits: u64,
    /// Successful snapshot extensions this attempt; flushed into
    /// `TmStats::snapshot_extensions` when the attempt ends.
    pub(crate) extensions: u64,
    /// Writes elided because the location already held the written value;
    /// flushed into `TmStats::silent_store_elisions` when the attempt ends.
    pub(crate) silent_elisions: u64,
    /// Commits that took the conflict-free snapshot+1 clock CAS and skipped
    /// validation; flushed into `TmStats::clock_tick_elisions`.
    pub(crate) clock_elisions: u64,
    /// Commit-time clock CASes lost to a concurrent committer; flushed into
    /// `TmStats::clock_cas_retries`.
    pub(crate) clock_retries: u64,
    /// Full cross-shard clock synchronizations (paid on the snapshot
    /// extension path only); flushed into `TmStats::clock_shard_syncs`.
    pub(crate) shard_syncs: u64,
    /// NOrec commits whose write set matched memory and skipped the
    /// sequence-lock bump; flushed into `TmStats::seqlock_bump_elisions`.
    pub(crate) seqlock_elisions: u64,
    /// High-watermark log sizes observed on this thread, updated as each
    /// attempt's logs are cleared. [`LogBufs::prewarm`] reserves to these
    /// marks up front, so a workload's steady-state transaction shape never
    /// reallocates mid-attempt — the mutation fast lane's "pre-sized
    /// redo/undo reservation" hints.
    peak_reads: usize,
    peak_writes: usize,
    peak_undo: usize,
}

/// The per-attempt stat tallies [`LogBufs`] accumulates and the runtime
/// flushes into the shared [`crate::TmStats`] counters once per attempt.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OpTallies {
    pub(crate) dedup_hits: u64,
    pub(crate) extensions: u64,
    pub(crate) silent_elisions: u64,
    pub(crate) clock_elisions: u64,
    pub(crate) clock_retries: u64,
    pub(crate) shard_syncs: u64,
    pub(crate) seqlock_elisions: u64,
}

impl LogBufs {
    /// Clears every log, keeping all backing storage. The per-attempt stat
    /// tallies survive (they are flushed by the runtime, which needs them
    /// *after* the engine's commit/rollback has cleared the logs); the
    /// high-watermark size hints are refreshed here, where the attempt's
    /// final log sizes are still visible.
    pub(crate) fn clear(&mut self) {
        self.peak_reads = self.peak_reads.max(self.reads.len());
        self.peak_writes = self.peak_writes.max(self.writes.len());
        self.peak_undo = self.peak_undo.max(self.undo.len());
        self.reads.clear();
        self.writes.clear();
        self.locks.clear();
        self.undo.clear();
        self.wmap.clear();
        self.rmap.clear();
    }

    /// Reserves log capacity up to the high-watermarks recorded by previous
    /// attempts on this thread. A no-op at steady state (cleared vectors
    /// keep their capacity); after a fresh arena or a workload shape change
    /// it front-loads the growth so no log reallocates mid-attempt.
    pub(crate) fn prewarm(&mut self) {
        if self.reads.capacity() < self.peak_reads {
            self.reads.reserve(self.peak_reads - self.reads.len());
        }
        if self.writes.capacity() < self.peak_writes {
            self.writes.reserve(self.peak_writes - self.writes.len());
            // A redo log past the inline window will index itself; size the
            // map for the expected spill instead of growing it in-flight.
            self.locks.reserve(self.peak_writes.saturating_sub(self.locks.len()));
        }
        if self.undo.capacity() < self.peak_undo {
            self.undo.reserve(self.peak_undo - self.undo.len());
        }
    }

    /// Takes and resets the per-attempt stat tallies.
    #[inline]
    pub(crate) fn take_op_tallies(&mut self) -> OpTallies {
        let t = OpTallies {
            dedup_hits: self.dedup_hits,
            extensions: self.extensions,
            silent_elisions: self.silent_elisions,
            clock_elisions: self.clock_elisions,
            clock_retries: self.clock_retries,
            shard_syncs: self.shard_syncs,
            seqlock_elisions: self.seqlock_elisions,
        };
        self.dedup_hits = 0;
        self.extensions = 0;
        self.silent_elisions = 0;
        self.clock_elisions = 0;
        self.clock_retries = 0;
        self.shard_syncs = 0;
        self.seqlock_elisions = 0;
        t
    }

    /// Duplicate-check-and-append in one pass: returns `Some(slot)` when
    /// the read log already holds `key` (orec index for eager/lazy, word
    /// address for NOrec — the caller refreshes the logged observation),
    /// otherwise appends `key -> v` and returns `None`. Reads at most
    /// [`SMALL_READS`] scan the log inline and never build the index; past
    /// the window the index is probed exactly once per read, where a
    /// lookup-miss-then-insert pair would pay two probe walks.
    #[inline]
    pub(crate) fn read_slot_or_append(&mut self, key: usize, v: u64) -> Option<usize> {
        if self.reads.len() <= SMALL_READS {
            if let Some(slot) = self.reads.iter().position(|&(k, _)| k == key) {
                return Some(slot);
            }
            if self.reads.len() == SMALL_READS {
                // Spilling past the inline window: index everything so far.
                self.rmap.rebuild(&self.reads);
                self.rmap.insert(key, self.reads.len());
            }
            self.reads.push((key, v));
            None
        } else {
            match self.rmap.get_or_insert(key, self.reads.len()) {
                Some(slot) => Some(slot),
                None => {
                    self.reads.push((key, v));
                    None
                }
            }
        }
    }

    /// Looks up the buffered value for `addr` in the redo log.
    ///
    /// Small-write fast path: transactions with at most [`SMALL_WRITES`]
    /// distinct writes scan the log inline and never build the map.
    #[inline]
    pub(crate) fn redo_lookup(&self, addr: usize) -> Option<u64> {
        if self.writes.len() <= SMALL_WRITES {
            self.writes
                .iter()
                .find(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
        } else {
            self.wmap.get(addr).map(|i| self.writes[i].1)
        }
    }

    /// Buffers `addr -> v`, overwriting an existing entry for the same
    /// address (the redo log holds one entry per address, so `writes.len()`
    /// *is* the deduplicated write-set size).
    #[inline]
    pub(crate) fn redo_record(&mut self, addr: usize, v: u64) {
        if self.writes.len() <= SMALL_WRITES {
            if let Some(e) = self.writes.iter_mut().find(|e| e.0 == addr) {
                e.1 = v;
                return;
            }
            self.writes.push((addr, v));
            if self.writes.len() == SMALL_WRITES + 1 {
                // Spilled past the inline window: index everything so far.
                self.wmap.rebuild(&self.writes);
            }
        } else {
            match self.wmap.get_or_insert(addr, self.writes.len()) {
                Some(i) => self.writes[i].1 = v,
                None => self.writes.push((addr, v)),
            }
        }
    }
}

/// A type-erased (empty) handler vector: only the allocation is reused,
/// never any `'env` contents.
type HandlerVec = Vec<Box<dyn FnOnce()>>;

/// The per-thread transaction arena: log buffers plus the cached backing
/// storage of the `onCommit`/`onAbort` handler vectors.
pub(crate) struct Arena {
    pub(crate) logs: LogBufs,
    /// Word staging for byte-range accesses: `read_bytes` copies a range
    /// here in one engine call before unpacking it, `write_bytes` packs
    /// into it before writing. Grows to the largest range, never shrinks.
    words: Vec<u64>,
    commit_handlers: HandlerVec,
    abort_handlers: HandlerVec,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            logs: LogBufs::default(),
            words: Vec::new(),
            commit_handlers: Vec::new(),
            abort_handlers: Vec::new(),
        }
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena").field("logs", &self.logs).finish_non_exhaustive()
    }
}

thread_local! {
    /// One cached arena per thread. `Cell<Option<..>>` rather than
    /// `RefCell` so a transaction started from inside an `onCommit`
    /// handler (or any other reentrancy) simply sees an empty slot and
    /// allocates fresh buffers instead of panicking.
    static ARENA: Cell<Option<Box<Arena>>> = const { Cell::new(None) };
}

/// Re-lifetimes an empty handler vector. Sound because the vector holds no
/// elements: only the raw allocation (pointer + capacity) is carried
/// across, and `Box<dyn FnOnce() + 'a>` has the same layout for every
/// `'a`.
fn relifetime<'from, 'to>(mut v: Vec<Box<dyn FnOnce() + 'from>>) -> Vec<Box<dyn FnOnce() + 'to>> {
    v.clear();
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    std::mem::forget(v);
    // SAFETY: len is 0, so no element is ever read at the new lifetime;
    // ptr/cap describe the same allocation with an identical element
    // layout (lifetimes do not affect layout).
    unsafe { Vec::from_raw_parts(ptr.cast::<Box<dyn FnOnce() + 'to>>(), 0, cap) }
}

impl Arena {
    /// Takes this thread's cached arena, or a fresh one if none is cached
    /// (first transaction on the thread, or a reentrant transaction). The
    /// logs come back pre-reserved to this thread's high-watermark hints.
    pub(crate) fn take() -> Box<Arena> {
        let mut a = ARENA.with(|slot| slot.take()).unwrap_or_default();
        a.logs.prewarm();
        a
    }

    /// The log buffers plus `n` staging words (contents unspecified).
    #[inline]
    pub(crate) fn logs_and_words(&mut self, n: usize) -> (&mut LogBufs, &mut [u64]) {
        if self.words.len() < n {
            self.words.resize(n, 0);
        }
        (&mut self.logs, &mut self.words[..n])
    }

    /// Borrows the cached `onCommit` handler storage at the transaction's
    /// environment lifetime. Must be paired with [`Arena::release`].
    pub(crate) fn take_handler_vecs<'env>(
        &mut self,
    ) -> (
        Vec<Box<dyn FnOnce() + 'env>>,
        Vec<Box<dyn FnOnce() + 'env>>,
    ) {
        (
            relifetime(std::mem::take(&mut self.commit_handlers)),
            relifetime(std::mem::take(&mut self.abort_handlers)),
        )
    }

    /// Returns an arena (plus the handler vectors borrowed from it) to the
    /// thread-local cache, clearing everything but keeping all storage.
    /// The handler vectors must already be empty (drained by commit or
    /// abort); any stragglers are dropped here before the lifetime is
    /// erased.
    pub(crate) fn release<'env>(
        mut self: Box<Self>,
        commit_handlers: Vec<Box<dyn FnOnce() + 'env>>,
        abort_handlers: Vec<Box<dyn FnOnce() + 'env>>,
    ) {
        debug_assert!(commit_handlers.is_empty() && abort_handlers.is_empty());
        self.commit_handlers = relifetime(commit_handlers);
        self.abort_handlers = relifetime(abort_handlers);
        self.logs.clear();
        ARENA.with(|slot| {
            // Keep at most one cached arena per thread; if a reentrant
            // transaction already refilled the slot, drop this one.
            if slot.take().is_none() {
                slot.set(Some(self));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writemap_insert_get_roundtrip() {
        let mut m = WriteMap::new();
        for i in 0..200usize {
            m.insert(0x1000 + i * 8, i);
        }
        assert_eq!(m.len(), 200);
        for i in 0..200usize {
            assert_eq!(m.get(0x1000 + i * 8), Some(i));
        }
        assert_eq!(m.get(0x1000 + 200 * 8), None);
    }

    #[test]
    fn writemap_clear_is_generation_bump() {
        let mut m = WriteMap::new();
        m.insert(0x2000, 0);
        let slots_before = m.slots.len();
        m.clear();
        assert_eq!(m.get(0x2000), None);
        assert_eq!(m.len(), 0);
        assert_eq!(m.slots.len(), slots_before, "clear must not free the slab");
        m.insert(0x2000, 7);
        assert_eq!(m.get(0x2000), Some(7));
    }

    #[test]
    fn writemap_survives_generation_wraparound() {
        let mut m = WriteMap::new();
        m.insert(0x3000, 1);
        m.gen = u32::MAX - 1;
        m.clear(); // -> MAX
        m.insert(0x3000, 2);
        assert_eq!(m.get(0x3000), Some(2));
        m.clear(); // wraps: full rezero
        assert_eq!(m.gen, 1);
        assert_eq!(m.get(0x3000), None);
        m.insert(0x3000, 3);
        assert_eq!(m.get(0x3000), Some(3));
    }

    #[test]
    fn redo_log_stays_deduplicated_across_the_spill() {
        let mut b = LogBufs::default();
        // Fill the inline window, overwriting one address repeatedly.
        for i in 0..SMALL_WRITES {
            b.redo_record(0x4000 + i * 8, i as u64);
            b.redo_record(0x4000, 100 + i as u64);
        }
        assert_eq!(b.writes.len(), SMALL_WRITES, "overwrites must not grow the log");
        // Spill well past the window.
        for i in SMALL_WRITES..100 {
            b.redo_record(0x4000 + i * 8, i as u64);
        }
        assert_eq!(b.writes.len(), 100);
        assert_eq!(b.wmap.len(), 100, "wmap and writes must agree after the spill");
        // Every address maps to its (unique) log entry, via both paths.
        for i in 0..100usize {
            let expect = if i == 0 {
                100 + SMALL_WRITES as u64 - 1
            } else {
                i as u64
            };
            assert_eq!(b.redo_lookup(0x4000 + i * 8), Some(expect), "addr {i}");
        }
        // Overwrite through the map path; the log must not grow.
        b.redo_record(0x4000 + 50 * 8, 999);
        assert_eq!(b.writes.len(), 100);
        assert_eq!(b.redo_lookup(0x4000 + 50 * 8), Some(999));
        b.clear();
        assert!(b.writes.is_empty());
        assert_eq!(b.redo_lookup(0x4000), None);
    }

    #[test]
    fn writemap_get_or_insert_is_single_probe_equivalent() {
        let mut m = WriteMap::new();
        // Miss inserts and reports None; hit returns the recorded index
        // without disturbing it. Orec-index-shaped keys (small, dense)
        // must spread, not cluster.
        for i in 0..100usize {
            assert_eq!(m.get_or_insert(i, i * 3), None, "first probe of {i}");
        }
        for i in 0..100usize {
            assert_eq!(m.get_or_insert(i, 777), Some(i * 3), "key {i}");
            assert_eq!(m.get(i), Some(i * 3), "get after hit {i}");
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn read_log_stays_deduplicated_across_the_spill() {
        let mut b = LogBufs::default();
        // Inline window: duplicates refresh in place, no index is built.
        for i in 0..SMALL_READS {
            assert_eq!(b.read_slot_or_append(i, i as u64), None);
            assert_eq!(b.read_slot_or_append(i, 0), Some(i));
        }
        assert_eq!(b.reads.len(), SMALL_READS);
        assert_eq!(b.rmap.len(), 0, "inline window must not touch the index");
        // A duplicate at exactly the window edge still resolves inline.
        assert_eq!(b.read_slot_or_append(0, 0), Some(0));
        assert_eq!(b.rmap.len(), 0);
        // Spill well past the window; dedup must keep working via the map.
        for i in SMALL_READS..100 {
            assert_eq!(b.read_slot_or_append(i, i as u64), None, "fresh key {i}");
        }
        assert_eq!(b.reads.len(), 100);
        assert_eq!(b.rmap.len(), 100, "rmap and reads must agree after the spill");
        for i in 0..100usize {
            assert_eq!(b.read_slot_or_append(i, 0), Some(i), "spilled dup {i}");
        }
        assert_eq!(b.reads.len(), 100, "duplicates must not grow the log");
        b.clear();
        assert!(b.reads.is_empty());
        assert_eq!(b.read_slot_or_append(5, 1), None, "fresh after clear");
    }

    #[test]
    fn prewarm_reserves_to_the_high_watermark() {
        let mut b = LogBufs::default();
        for i in 0..50usize {
            b.reads.push((i, 0));
            b.writes.push((i, 0));
            b.undo.push((i, 0));
        }
        b.clear();
        // A fresh arena has no capacity yet but inherits the hints.
        b.reads = Vec::new();
        b.writes = Vec::new();
        b.undo = Vec::new();
        b.prewarm();
        assert!(b.reads.capacity() >= 50, "reads hint not applied");
        assert!(b.writes.capacity() >= 50, "writes hint not applied");
        assert!(b.undo.capacity() >= 50, "undo hint not applied");
        // Steady state: prewarm against retained capacity must not shrink.
        let cap = b.reads.capacity();
        b.prewarm();
        assert_eq!(b.reads.capacity(), cap);
    }

    #[test]
    fn op_tallies_reset_on_take() {
        let mut b = LogBufs::default();
        b.silent_elisions = 3;
        b.clock_elisions = 2;
        b.clock_retries = 1;
        b.dedup_hits = 7;
        b.shard_syncs = 5;
        b.seqlock_elisions = 4;
        let t = b.take_op_tallies();
        assert_eq!(
            (t.silent_elisions, t.clock_elisions, t.clock_retries, t.dedup_hits),
            (3, 2, 1, 7)
        );
        assert_eq!((t.shard_syncs, t.seqlock_elisions), (5, 4));
        let t2 = b.take_op_tallies();
        assert_eq!(
            t2.silent_elisions
                + t2.clock_elisions
                + t2.clock_retries
                + t2.shard_syncs
                + t2.seqlock_elisions,
            0
        );
    }

    #[test]
    fn arena_take_release_reuses_capacity() {
        // Prime the thread-local arena with grown buffers.
        let mut a = Arena::take();
        a.logs.reads.reserve(1024);
        let cap = a.logs.reads.capacity();
        let (ch, ah) = a.take_handler_vecs();
        a.release(ch, ah);
        // The next take on this thread sees the same storage.
        let a2 = Arena::take();
        assert!(a2.logs.reads.capacity() >= cap, "capacity must survive release/take");
        let (ch, ah) = {
            let mut a2 = a2;
            let v = a2.take_handler_vecs();
            a2.release(v.0, v.1);
            Arena::take().take_handler_vecs()
        };
        assert!(ch.is_empty() && ah.is_empty());
    }

    #[test]
    fn handler_storage_survives_relifetime() {
        let mut a = Arena::take();
        let (mut ch, ah) = a.take_handler_vecs();
        ch.reserve(32);
        let cap = ch.capacity();
        ch.push(Box::new(|| {}));
        ch.clear();
        a.release(ch, ah);
        let mut a = Arena::take();
        let (ch, _ah) = a.take_handler_vecs();
        assert!(ch.capacity() >= cap, "handler allocation must be reused");
    }
}
