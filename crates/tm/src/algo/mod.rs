//! The STM algorithm engines evaluated in the paper's §4 (Figure 11).
//!
//! * [`eager`] — the GCC default method group: encounter-time orec locking,
//!   write-through (direct update) with an undo log.
//! * [`lazy`] — the paper's "Lazy" variant: same orec table, but buffered
//!   (redo-log) updates with commit-time locking.
//! * [`norec`] — NOrec \[Dalessandro et al., PPoPP 2010\]: no ownership
//!   records at all; a single global sequence lock plus value-based
//!   validation.
//!
//! Engines operate on raw word addresses. The public API (`Tx<'env>`)
//! guarantees every address passed in outlives the transaction, so the
//! internal `usize -> &TWord` casts are sound.

pub mod eager;
pub mod lazy;
pub mod norec;

use crate::arena::LogBufs;
use crate::cell::TWord;
use crate::error::Abort;
use crate::orec;
use crate::runtime::RtInner;

/// Which algorithm a runtime uses for instrumented transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// GCC default: encounter-time locking, write-through, undo log.
    #[default]
    Eager,
    /// Commit-time locking over the same orec table, redo log.
    Lazy,
    /// Global sequence lock + value-based validation, redo log.
    Norec,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Eager => write!(f, "gcc-eager"),
            Algorithm::Lazy => write!(f, "lazy"),
            Algorithm::Norec => write!(f, "norec"),
        }
    }
}

impl Algorithm {
    /// Packs the algorithm into the runtime's atomic config word (the live
    /// algorithm is swappable by [`crate::TmRuntime::switch_config`]).
    pub(crate) fn encode(self) -> u8 {
        match self {
            Algorithm::Eager => 0,
            Algorithm::Lazy => 1,
            Algorithm::Norec => 2,
        }
    }

    pub(crate) fn decode(code: u8) -> Algorithm {
        match code {
            0 => Algorithm::Eager,
            1 => Algorithm::Lazy,
            2 => Algorithm::Norec,
            other => unreachable!("invalid algorithm code {other}"),
        }
    }
}

/// Reinterprets a stored word address. Soundness: addresses enter engines
/// only through `Tx<'env>` methods whose signatures force the referent to
/// outlive the transaction.
#[inline]
pub(crate) fn tword_at<'a>(addr: usize) -> &'a TWord {
    unsafe { &*(addr as *const TWord) }
}

/// Calls `f(addr, words)` for each orec block the `n`-word range starting
/// at `base` touches, in address order: `addr` is the chunk's first word
/// and `words` its index range in the caller's slice. Every chunk lies in
/// one 64-byte block, so it is covered by exactly one orec.
#[inline(always)]
pub(crate) fn for_each_block<F>(base: usize, n: usize, mut f: F) -> Result<(), Abort>
where
    F: FnMut(usize, std::ops::Range<usize>) -> Result<(), Abort>,
{
    let mut k = 0;
    while k < n {
        let addr = base + 8 * k;
        let end = (k + (orec::BLOCK_BYTES - addr % orec::BLOCK_BYTES) / 8).min(n);
        f(addr, k..end)?;
        k = end;
    }
    Ok(())
}

/// Loads the words of one block chunk straight from memory, skipping the
/// words whose bit is set in `skip` (lazy fills those from its redo log).
#[inline(always)]
pub(crate) fn load_block(addr: usize, dst: &mut [u64], skip: u8) {
    for (k, d) in dst.iter_mut().enumerate() {
        if skip & (1 << k) == 0 {
            *d = tword_at(addr + 8 * k).load_direct();
        }
    }
}

/// Per-attempt algorithm state.
#[derive(Debug)]
pub(crate) enum Engine {
    Eager(eager::EagerTx),
    Lazy(lazy::LazyTx),
    Norec(norec::NorecTx),
    /// Uninstrumented direct access: serial-irrevocable transactions.
    Serial,
}

impl Engine {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Engine {
        match rt.algorithm() {
            Algorithm::Eager => Engine::Eager(eager::EagerTx::begin(rt, tx_id)),
            Algorithm::Lazy => Engine::Lazy(lazy::LazyTx::begin(rt, tx_id)),
            Algorithm::Norec => Engine::Norec(norec::NorecTx::begin(rt)),
        }
    }

    #[inline]
    pub(crate) fn read_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
    ) -> Result<u64, Abort> {
        match self {
            Engine::Eager(e) => e.read_word(rt, bufs, addr),
            Engine::Lazy(e) => e.read_word(rt, bufs, addr),
            Engine::Norec(e) => e.read_word(rt, bufs, addr),
            Engine::Serial => Ok(tword_at(addr).load_direct()),
        }
    }

    #[inline]
    pub(crate) fn write_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        v: u64,
    ) -> Result<(), Abort> {
        match self {
            Engine::Eager(e) => e.write_word(rt, bufs, addr, v),
            Engine::Lazy(e) => e.write_word(rt, bufs, addr, v),
            Engine::Norec(e) => e.write_word(rt, bufs, addr, v),
            Engine::Serial => {
                tword_at(addr).store_direct(v);
                Ok(())
            }
        }
    }

    /// Reads `dst.len()` consecutive words starting at address `base` (a
    /// [`crate::TBytes`] window): one dispatch for the whole range.
    pub(crate) fn read_range(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        base: usize,
        dst: &mut [u64],
    ) -> Result<(), Abort> {
        match self {
            Engine::Eager(e) => e.read_range(rt, bufs, base, dst),
            Engine::Lazy(e) => e.read_range(rt, bufs, base, dst),
            Engine::Norec(e) => e.read_range(rt, bufs, base, dst),
            Engine::Serial => {
                for (k, d) in dst.iter_mut().enumerate() {
                    *d = tword_at(base + 8 * k).load_direct();
                }
                Ok(())
            }
        }
    }

    /// Writes `src` to consecutive words starting at address `base`: one
    /// dispatch for the whole range. Eager and lazy take one orec step per
    /// block; NOrec loops its per-word write step.
    pub(crate) fn write_range(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        base: usize,
        src: &[u64],
    ) -> Result<(), Abort> {
        match self {
            Engine::Eager(e) => e.write_range(rt, bufs, base, src),
            Engine::Lazy(e) => e.write_range(rt, bufs, base, src),
            Engine::Norec(e) => src
                .iter()
                .enumerate()
                .try_for_each(|(k, &v)| e.write_word(rt, bufs, base + 8 * k, v)),
            Engine::Serial => {
                for (k, &v) in src.iter().enumerate() {
                    tword_at(base + 8 * k).store_direct(v);
                }
                Ok(())
            }
        }
    }

    /// True if this attempt has written nothing (read-only commit path).
    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        match self {
            Engine::Eager(e) => e.is_read_only(bufs),
            Engine::Lazy(e) => e.is_read_only(bufs),
            Engine::Norec(e) => e.is_read_only(bufs),
            Engine::Serial => false,
        }
    }

    /// Attempts to commit. On `Err` the engine has already rolled back.
    ///
    /// On success returns the attempt's *commit stamp*: a position in the
    /// runtime's global time base (versioned clock for eager/lazy, sequence
    /// lock for norec) such that any two committed transactions with
    /// overlapping write sets carry stamps ordered consistently with their
    /// real-time commit order. Read-only commits reuse their snapshot. A
    /// serial-irrevocable attempt has no engine stamp; `commit_point` mints
    /// one while still holding the serial lock exclusively.
    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        match self {
            Engine::Eager(e) => e.commit(rt, bufs),
            Engine::Lazy(e) => e.commit(rt, bufs),
            Engine::Norec(e) => e.commit(rt, bufs),
            Engine::Serial => Ok(0),
        }
    }

    /// Rolls back an attempt that will not commit. Must leave no lock
    /// held: this is also the panic-recovery path, invoked while an
    /// unwind is in flight.
    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        match self {
            Engine::Eager(e) => e.rollback(rt, bufs),
            Engine::Lazy(e) => e.rollback(rt, bufs),
            Engine::Norec(e) => e.rollback(rt, bufs),
            // Serial-irrevocable effects are uninstrumented direct writes;
            // there is nothing to undo (documented: like a panic inside a
            // lock-based critical section).
            Engine::Serial => {}
        }
    }

    /// Upgrades to irrevocable mode. The caller must already hold the
    /// serial lock exclusively (all other transactions drained). On success
    /// the engine has published every buffered effect and `self` becomes
    /// [`Engine::Serial`]; on failure the attempt must be aborted.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        match self {
            Engine::Eager(e) => e.make_irrevocable(rt, bufs)?,
            Engine::Lazy(e) => e.make_irrevocable(rt, bufs)?,
            Engine::Norec(e) => e.make_irrevocable(rt, bufs)?,
            Engine::Serial => return Ok(()),
        }
        *self = Engine::Serial;
        Ok(())
    }
}
