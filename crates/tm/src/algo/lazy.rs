//! The "Lazy" engine (paper §4): the same orec lock table as the GCC
//! default, but buffered (redo-log) updates with commit-time locking —
//! TL2-style.
//!
//! The paper found this algorithm abort-prone on memcached (14 aborts per
//! commit at 12 threads) and penalized by its redo log: `memcpy`-style
//! byte stores must be buffered and then found again by later word reads.
//! That redo lookup used to be a `HashMap<usize, usize>` allocated per
//! attempt; it is now the arena's open-addressed
//! [`WriteMap`](crate::arena::WriteMap) with an inline small-write scan
//! (see [`LogBufs::redo_lookup`]), so a steady-state attempt allocates
//! nothing.
//!
//! Buffer roles in [`LogBufs`]: `reads` holds `(orec index, observed
//! unlocked value)`, `writes` the redo log (one entry per distinct word
//! address), `wmap` the redo index past the inline window, and `locks` the
//! commit-time held-lock scratch list.

use super::{for_each_block, load_block, tword_at};
use crate::arena::LogBufs;
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::orec::{self, OrecValue};
use crate::runtime::RtInner;

/// Per-attempt state for the lazy engine; logs live in the arena.
#[derive(Debug)]
pub(crate) struct LazyTx {
    tx_id: u64,
    start_time: u64,
}

/// Revalidates the read set against the orec table. `held` is the
/// commit-time lock list: an orec we locked ourselves is valid iff its
/// pre-lock value is what the read observed.
fn validate(
    rt: &RtInner,
    tx_id: u64,
    reads: &[(usize, OrecValue)],
    held: &[(usize, OrecValue)],
) -> Result<(), Abort> {
    // Fault site: every caller treats a validation Err like a real
    // conflict and releases any held orecs; a panic here is recovered by
    // LazyTx::rollback, which releases `bufs.locks` to pre-lock values.
    fault::inject(FaultSite::Validate)?;
    for &(idx, observed) in reads {
        let cur = rt.orecs.load(idx);
        if cur == observed {
            continue;
        }
        if orec::is_locked(cur) && orec::owner_of(cur) == tx_id {
            // Locked by us during this commit; valid iff the pre-lock
            // value is what we observed when reading.
            if held.iter().any(|&(i, prev)| i == idx && prev == observed) {
                continue;
            }
        }
        rt.orecs.note_conflict(idx);
        return Err(Abort::Conflict);
    }
    Ok(())
}

impl LazyTx {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Self {
        LazyTx {
            tx_id,
            // Own-shard load + cached cross-shard view; see the eager twin.
            start_time: rt.clock.now_cached(),
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.writes.is_empty()
    }

    fn extend(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        // The one full cross-shard clock scan on the read path: TLC-style,
        // paid only under validation pressure.
        let now = rt.clock.sync();
        bufs.shard_syncs += 1;
        validate(rt, self.tx_id, &bufs.reads, &[])?;
        self.start_time = now;
        bufs.extensions += 1;
        Ok(())
    }

    /// The orec read protocol for one block chunk (`dst.len()` words at
    /// `addr`, all in one 64-byte block), shared by [`LazyTx::read_word`]
    /// and [`LazyTx::read_range`]. `redo` says whether the write set may
    /// hold some of the words (it is empty on every read-only attempt,
    /// which then skips the lookups); words it holds come from the redo
    /// log, the rest from memory under one orec sample, and a chunk the
    /// redo log answers whole logs no read. `DEDUP` is as in the eager
    /// twin.
    #[inline(always)]
    fn read_block<const DEDUP: bool>(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        dst: &mut [u64],
        redo: bool,
    ) -> Result<(), Abort> {
        let mut buffered = 0u8;
        if redo {
            for (k, d) in dst.iter_mut().enumerate() {
                if let Some(v) = bufs.redo_lookup(addr + 8 * k) {
                    *d = v;
                    buffered |= 1 << k;
                }
            }
            if buffered.count_ones() as usize == dst.len() {
                return Ok(());
            }
        }
        let idx = rt.orecs.index_of(addr);
        loop {
            let o1 = rt.orecs.load(idx);
            if orec::is_locked(o1) {
                // We never hold locks while executing, so this is always a
                // concurrent committer: conflict.
                rt.orecs.note_conflict(idx);
                return Err(Abort::Conflict);
            }
            load_block(addr, dst, buffered);
            let o2 = rt.orecs.load(idx);
            if o1 != o2 {
                continue;
            }
            if orec::version_of(o1) <= self.start_time {
                if !DEDUP {
                    bufs.reads.push((idx, o1));
                } else if let Some(slot) = bufs.read_slot_or_append(idx, o1) {
                    // Already logged: keep the latest consistent
                    // observation instead of appending a duplicate.
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
        let redo = !bufs.writes.is_empty();
        let mut v = [0];
        self.read_block::<true>(rt, bufs, addr, &mut v, redo)?;
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
        let redo = !bufs.writes.is_empty();
        for_each_block(base, dst.len(), |a, r| {
            self.read_block::<false>(rt, bufs, a, &mut dst[r], redo)
        })
    }

    /// Buffers one block chunk in the redo log. Silent-store elision: a
    /// word whose value equals the committed contents (read consistently
    /// at our snapshot under one orec sample) is logged as a READ of the
    /// block instead of buffered — validation still covers the location,
    /// so a concurrent change aborts us like any read-write conflict, but
    /// the commit never locks the orec for it or writes the word back.
    /// Addresses already buffered must stay buffered (the redo value, not
    /// memory, is what later reads and the write-back observe).
    #[inline(always)]
    fn write_block(&mut self, rt: &RtInner, bufs: &mut LogBufs, addr: usize, src: &[u64]) {
        let idx = rt.orecs.index_of(addr);
        let o1 = rt.orecs.load(idx);
        let mut silent = 0u8;
        if !orec::is_locked(o1) && orec::version_of(o1) <= self.start_time {
            for (k, &v) in src.iter().enumerate() {
                let a = addr + 8 * k;
                if tword_at(a).load_direct() == v && bufs.redo_lookup(a).is_none() {
                    silent |= 1 << k;
                }
            }
            if silent != 0 && rt.orecs.load(idx) != o1 {
                silent = 0; // changed under the values read
            }
        }
        if silent != 0 {
            if let Some(slot) = bufs.read_slot_or_append(idx, o1) {
                bufs.reads[slot].1 = o1;
            }
            bufs.silent_elisions += u64::from(silent.count_ones());
        }
        for (k, &v) in src.iter().enumerate() {
            if silent & (1 << k) == 0 {
                bufs.redo_record(addr + 8 * k, v);
            }
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
        self.write_block(rt, bufs, addr, &[v]);
        Ok(())
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
            self.write_block(rt, bufs, a, &src[r]);
            Ok(())
        })
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry, before any orec is taken.
        if let Err(e) = fault::inject(FaultSite::CommitLock) {
            bufs.clear();
            return Err(e);
        }
        let LogBufs {
            reads,
            writes,
            locks: held,
            clock_elisions,
            clock_retries,
            ..
        } = bufs;
        if writes.is_empty() {
            bufs.clear();
            return Ok(self.start_time);
        }
        // Acquire every distinct orec covering the write set. The redo log
        // holds one entry per word address (redo_record deduplicates), so
        // `writes.len()` is the deduplicated upper bound on held locks;
        // steady-state this reserve is a no-op against arena capacity.
        debug_assert!(held.is_empty());
        held.reserve(writes.len());
        for &(addr, _) in writes.iter() {
            let idx = rt.orecs.index_of(addr);
            // Redo entries of one block are mostly adjacent, so the last
            // held orec answers most lookups before the scan. A hit is a
            // block we already hold, or a hash collision onto one.
            if held.last().is_some_and(|&(i, _)| i == idx) || held.iter().any(|&(i, _)| i == idx) {
                continue;
            }
            // Fault site: commit-time orec acquisition. Held orecs so far
            // are in `held` (== bufs.locks), so the Err path below and a
            // panic (recovered by rollback) both release them to their
            // pre-lock values.
            if let Err(e) = fault::inject(FaultSite::OrecAcquire) {
                release_held(rt, held, None);
                bufs.clear();
                return Err(e);
            }
            loop {
                let o = rt.orecs.load(idx);
                if orec::is_locked(o) {
                    if orec::owner_of(o) == self.tx_id {
                        break; // hash collision onto an orec we already hold
                    }
                    rt.orecs.note_conflict(idx);
                    release_held(rt, held, None);
                    bufs.clear();
                    return Err(Abort::Conflict);
                }
                if rt.orecs.try_update(idx, o, orec::locked_by(self.tx_id)) {
                    held.push((idx, o));
                    break;
                }
            }
        }
        // Fault site: clock advance. Whole write set locked, nothing
        // published; releasing to pre-lock values undoes everything.
        if let Err(e) = fault::inject(FaultSite::ClockTick) {
            release_held(rt, held, None);
            bufs.clear();
            return Err(e);
        }
        let (end, revalidate) = rt.clock.commit_tick(self.start_time);
        if revalidate {
            // A shard moved past our snapshot: someone committed since we
            // started, revalidate the read set.
            *clock_retries += 1;
            if validate(rt, self.tx_id, reads, held).is_err() {
                release_held(rt, held, None);
                bufs.clear();
                return Err(Abort::Conflict);
            }
        } else {
            // GV5-style conflict-free path: no commit since our snapshot,
            // so the read set is provably current — validation elided.
            *clock_elisions += 1;
        }
        for &(addr, v) in writes.iter() {
            tword_at(addr).store_direct(v);
        }
        release_held(rt, held, Some(end));
        bufs.clear();
        // Same commit-stamp invariant as eager: `end` exceeds every stamp
        // published before our write locks became visible.
        Ok(end)
    }

    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        // Normally nothing is held here — commit releases its own locks on
        // every failure path — but a panic that unwinds out of the
        // commit-time acquisition loop (e.g. an injected fault) leaves its
        // partial lock set in `bufs.locks`; restore those orecs to their
        // pre-lock values so other threads are never blocked.
        release_held(rt, &bufs.locks, None);
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively: validate, then publish the
    /// redo log directly.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        if validate(rt, self.tx_id, &bufs.reads, &[]).is_err() {
            bufs.clear();
            return Err(Abort::Conflict);
        }
        for &(addr, v) in &bufs.writes {
            tword_at(addr).store_direct(v);
        }
        bufs.clear();
        Ok(())
    }
}

/// Releases held orecs — to their pre-lock values on failure (`None`),
/// or to the commit timestamp on success.
fn release_held(rt: &RtInner, held: &[(usize, OrecValue)], end: Option<u64>) {
    for &(idx, prev) in held {
        rt.orecs.release(idx, end.map_or(prev, orec::unlocked_at));
    }
}
