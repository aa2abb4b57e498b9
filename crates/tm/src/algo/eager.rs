//! The GCC-default engine: encounter-time orec locking, write-through
//! (direct update), undo logging, and TinySTM/TL2-style timestamp
//! extension.
//!
//! The paper (§4) observes that this design "does not have buffered update,
//! had the lowest latency and the best scalability" on memcached — at the
//! price of expensive aborts, since undone writes must be rolled back in
//! place and the touched orecs' versions bumped.
//!
//! Log storage lives in the caller-provided [`LogBufs`] arena (cleared,
//! never freed, between attempts): `reads`/`locks` hold
//! `(orec index, observed unlocked value)` pairs and `undo` holds
//! `(word address, previous value)`.

use super::{for_each_block, load_block, tword_at};
use crate::arena::{LogBufs, SMALL_WRITES};
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::orec::{self, OrecValue};
use crate::runtime::RtInner;

/// Per-attempt state for the eager engine. The logs themselves live in the
/// thread's arena ([`LogBufs`]), passed into every operation.
#[derive(Debug)]
pub(crate) struct EagerTx {
    tx_id: u64,
    start_time: u64,
}

/// Did this transaction lock `idx`, and if so with what pre-lock value?
fn lock_prev(locks: &[(usize, OrecValue)], idx: usize) -> Option<OrecValue> {
    locks.iter().rev().find(|(i, _)| *i == idx).map(|(_, p)| *p)
}

/// Inline small-write scan over the most recent undo entries (the eager
/// twin of the redo log's [`SMALL_WRITES`] window): a word rewritten while
/// its orec is already ours needs no second undo entry — rollback replays
/// in reverse, so only the oldest entry per address matters. Duplicates
/// older than the window are pushed again, which is merely redundant.
#[inline]
fn undo_recently_logged(undo: &[(usize, u64)], addr: usize) -> bool {
    undo.iter().rev().take(SMALL_WRITES).any(|&(a, _)| a == addr)
}

/// Stores a block chunk whose orec this attempt holds, undo-logging each
/// word it changes; words that already hold their value are silent stores.
/// `HELD_BEFORE` says the orec was ours before this write: only then can a
/// word of the block already have an undo entry.
#[inline(always)]
fn store_block<const HELD_BEFORE: bool>(bufs: &mut LogBufs, addr: usize, src: &[u64]) {
    for (k, &v) in src.iter().enumerate() {
        let a = addr + 8 * k;
        let w = tword_at(a);
        let cur = w.load_direct();
        if cur == v {
            bufs.silent_elisions += 1;
            continue;
        }
        if !HELD_BEFORE || !undo_recently_logged(&bufs.undo, a) {
            bufs.undo.push((a, cur));
        }
        w.store_direct(v);
    }
}

impl EagerTx {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Self {
        EagerTx {
            tx_id,
            // Own-shard load + cached cross-shard view: no full clock scan
            // at begin. A stale-low snapshot costs at most an extension.
            start_time: rt.clock.now_cached(),
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.locks.is_empty()
    }

    /// Revalidates the read set; on success the snapshot may be extended to
    /// `new_time` by the caller.
    fn validate(&self, rt: &RtInner, bufs: &LogBufs) -> Result<(), Abort> {
        // Fault site: callers treat a validation Err exactly like a real
        // conflict, and a panic here finds the undo log and lock set
        // intact for replay.
        fault::inject(FaultSite::Validate)?;
        for &(idx, observed) in &bufs.reads {
            let cur = rt.orecs.load(idx);
            if cur == observed {
                continue;
            }
            if orec::is_locked(cur) && orec::owner_of(cur) == self.tx_id {
                // We locked this orec after reading it; the read is stale
                // only if someone committed in between (pre-lock value
                // differs from what we read past).
                if lock_prev(&bufs.locks, idx) == Some(observed) {
                    continue;
                }
            }
            rt.orecs.note_conflict(idx);
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// TinySTM-style timestamp extension: revalidate, then move the
    /// snapshot forward. This is the one place the read path pays a full
    /// cross-shard clock scan ([`crate::clock::ShardedClock::sync`]) —
    /// TLC-style, synchronization only on validation pressure.
    fn extend(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        let now = rt.clock.sync();
        bufs.shard_syncs += 1;
        self.validate(rt, bufs)?;
        self.start_time = now;
        bufs.extensions += 1;
        Ok(())
    }

    /// The orec read protocol for one block chunk (`dst.len()` words at
    /// `addr`, all in one 64-byte block), shared by [`EagerTx::read_word`]
    /// and [`EagerTx::read_range`]: sample the block's orec, load the
    /// words, re-sample, and log one `(orec, observed)` entry. `DEDUP`
    /// picks how the observation is logged: single-word reads probe the
    /// read set and refresh an existing entry, range reads append
    /// unconditionally. Both are sound: a second entry for an orec always
    /// holds the value the first one holds, since an orec that moved past
    /// the snapshot forces an extension, whose validation of the first
    /// entry fails (DESIGN.md §17.2).
    #[inline(always)]
    fn read_block<const DEDUP: bool>(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        dst: &mut [u64],
    ) -> Result<(), Abort> {
        let idx = rt.orecs.index_of(addr);
        loop {
            let o1 = rt.orecs.load(idx);
            if orec::is_locked(o1) {
                if orec::owner_of(o1) == self.tx_id {
                    // Write-through: our own writes are already in place.
                    load_block(addr, dst, 0);
                    return Ok(());
                }
                rt.orecs.note_conflict(idx);
                return Err(Abort::Conflict);
            }
            load_block(addr, dst, 0);
            let o2 = rt.orecs.load(idx);
            if o1 != o2 {
                continue; // changed under us; re-sample
            }
            if orec::version_of(o1) <= self.start_time {
                if !DEDUP {
                    bufs.reads.push((idx, o1));
                } else if let Some(slot) = bufs.read_slot_or_append(idx, o1) {
                    // A duplicate entry would only make validation longer:
                    // keep the latest consistent observation.
                    bufs.reads[slot].1 = o1;
                    bufs.dedup_hits += 1;
                }
                return Ok(());
            }
            self.extend(rt, bufs)?;
        }
    }

    pub(crate) fn read_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
    ) -> Result<u64, Abort> {
        let mut v = [0];
        self.read_block::<true>(rt, bufs, addr, &mut v)?;
        Ok(v[0])
    }

    /// Reads `dst.len()` consecutive words starting at `base`.
    pub(crate) fn read_range(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        base: usize,
        dst: &mut [u64],
    ) -> Result<(), Abort> {
        for_each_block(base, dst.len(), |a, r| {
            self.read_block::<false>(rt, bufs, a, &mut dst[r])
        })
    }

    /// The orec write protocol for one block chunk: lock the block's orec
    /// once, then undo-log and store each word in place. A chunk whose
    /// every word already holds its new value is elided instead.
    #[inline(always)]
    fn write_block(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        src: &[u64],
    ) -> Result<(), Abort> {
        // Fault site: before any state for this block is touched, so an
        // injected abort/panic leaves the undo log consistent.
        fault::inject(FaultSite::OrecAcquire)?;
        let idx = rt.orecs.index_of(addr);
        loop {
            let o = rt.orecs.load(idx);
            if orec::is_locked(o) {
                if orec::owner_of(o) == self.tx_id {
                    store_block::<true>(bufs, addr, src);
                    return Ok(());
                }
                rt.orecs.note_conflict(idx);
                return Err(Abort::Conflict);
            }
            if orec::version_of(o) > self.start_time {
                self.extend(rt, bufs)?;
                continue;
            }
            let silent = src
                .iter()
                .enumerate()
                .all(|(k, &v)| tword_at(addr + 8 * k).load_direct() == v);
            if silent {
                // Silent-store elision: the committed words already hold
                // `src` (consistent iff the orec has not moved under the
                // values read). Log the orec as a READ instead of locking —
                // commit-time validation still covers the block, so a
                // concurrent writer changing it aborts us exactly as a real
                // write-write conflict would.
                if rt.orecs.load(idx) != o {
                    continue; // changed under the values read; re-sample
                }
                if let Some(slot) = bufs.read_slot_or_append(idx, o) {
                    bufs.reads[slot].1 = o;
                }
                bufs.silent_elisions += src.len() as u64;
                return Ok(());
            }
            if rt.orecs.try_update(idx, o, orec::locked_by(self.tx_id)) {
                bufs.locks.push((idx, o));
                store_block::<false>(bufs, addr, src);
                return Ok(());
            }
            // CAS raced; re-sample.
        }
    }

    #[inline(always)]
    pub(crate) fn write_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        v: u64,
    ) -> Result<(), Abort> {
        self.write_block(rt, bufs, addr, &[v])
    }

    /// Writes `src` to consecutive words starting at `base`.
    pub(crate) fn write_range(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        base: usize,
        src: &[u64],
    ) -> Result<(), Abort> {
        for_each_block(base, src.len(), |a, r| {
            self.write_block(rt, bufs, a, &src[r])
        })
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry. Locks and undo are intact, so both the
        // Err path (rollback below) and a panic are fully recoverable.
        if let Err(e) = fault::inject(FaultSite::CommitLock) {
            self.rollback(rt, bufs);
            return Err(e);
        }
        if bufs.locks.is_empty() {
            // Invisible reads were validated at read/extend time against a
            // snapshot; a read-only transaction is serializable at its
            // snapshot and commits without touching the clock.
            bufs.clear();
            return Ok(self.start_time);
        }
        // Fault site: clock advance. Nothing published yet.
        if let Err(e) = fault::inject(FaultSite::ClockTick) {
            self.rollback(rt, bufs);
            return Err(e);
        }
        let (end, revalidate) = rt.clock.commit_tick(self.start_time);
        if revalidate {
            // Some shard moved past our snapshot: a transaction committed
            // since we started, so the read set must be revalidated.
            bufs.clock_retries += 1;
            if self.validate(rt, bufs).is_err() {
                self.rollback(rt, bufs);
                return Err(Abort::Conflict);
            }
        } else {
            // GV5-style conflict-free path: no shard moved past our
            // snapshot even after our own CAS published, so no transaction
            // committed since we started — validation elided.
            bufs.clock_elisions += 1;
        }
        for &(idx, _) in &bufs.locks {
            rt.orecs.release(idx, orec::unlocked_at(end));
        }
        bufs.clear();
        // `end` came from `commit_tick`, so it exceeds every timestamp
        // published before this attempt's write-set locks became visible
        // — later committers on overlapping data mint strictly larger
        // stamps.
        Ok(end)
    }

    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        // Undo in reverse so overlapping writes restore the oldest value.
        for &(addr, old) in bufs.undo.iter().rev() {
            tword_at(addr).store_direct(old);
        }
        if !bufs.locks.is_empty() {
            // Bump versions: concurrent readers may have seen our
            // intermediate values and must fail validation.
            let t = rt.clock.tick();
            for &(idx, _) in &bufs.locks {
                rt.orecs.release(idx, orec::unlocked_at(t));
            }
        }
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively. Validate, then publish:
    /// writes are already in place, so releasing our orecs at a fresh
    /// timestamp completes the transition to uninstrumented execution.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        if self.validate(rt, bufs).is_err() {
            self.rollback(rt, bufs);
            return Err(Abort::Conflict);
        }
        if !bufs.locks.is_empty() {
            let end = rt.clock.tick();
            for &(idx, _) in &bufs.locks {
                rt.orecs.release(idx, orec::unlocked_at(end));
            }
        }
        bufs.clear();
        Ok(())
    }
}
