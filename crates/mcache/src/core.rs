//! `items.c` logic: allocation with LRU eviction, link/unlink, get,
//! arithmetic — composed from the slab arena, hash table, and LRU lists,
//! and generic over the execution context so every branch shares one
//! implementation.

use tm::layout::OwnBlock;
use tm::{Abort, TCell};
use tmstd::ByteAccess;

use crate::assoc::AssocTable;
use crate::ctx::Ctx;
use crate::item::{ItemHandle, ItemSizes, ITEM_FETCHED, ITEM_LINKED};
use crate::lru::LruList;
use crate::policy::{Category, ItemMode, Policy};
use crate::slabs::{SlabArena, SlabConfig};
use crate::stats::GlobalStats;

use lockprof::{ProfiledGuard, ProfiledMutex, Profiler};

/// Striped item locks, in both physical forms: real mutexes for the
/// lock-based branches, transactional booleans for IP (§3.1: "we could
/// make the lock acquire and release into mini-transactions on a
/// boolean"). IT has neither — its item critical sections are
/// transactions.
pub struct ItemLocks {
    mutexes: Vec<ProfiledMutex<()>>,
    /// One block each: IP takes and drops a stripe's boolean on every
    /// operation, so neighbouring stripes must not share an orec.
    cells: Vec<OwnBlock<TCell<bool>>>,
    mask: u32,
}

impl std::fmt::Debug for ItemLocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemLocks")
            .field("stripes", &self.cells.len())
            .finish()
    }
}

/// A held victim item lock during eviction (Figure 1a's `tm_trylock`).
#[derive(Debug)]
pub enum VictimLock<'a> {
    /// Lock-branch mutex guard.
    Mutex(ProfiledGuard<'a, ()>),
    /// IP: the boolean was CASed true inside the current transaction and
    /// must be written false before the transaction ends.
    TxBool(usize),
    /// IT, or the victim shares the stripe we already hold.
    None,
}

impl ItemLocks {
    /// Creates `2^power` stripes.
    pub fn new(power: u32, profiler: &Profiler) -> Self {
        let n = 1usize << power;
        ItemLocks {
            mutexes: (0..n)
                .map(|i| ProfiledMutex::new(&format!("item_lock[{i}]"), (), profiler))
                .collect(),
            cells: (0..n).map(|_| OwnBlock(TCell::new(false))).collect(),
            mask: n as u32 - 1,
        }
    }

    /// The stripe index for a key hash.
    pub fn stripe(&self, hv: u32) -> usize {
        (hv & self.mask) as usize
    }

    /// The lock-branch mutex for a stripe.
    pub fn mutex(&self, stripe: usize) -> &ProfiledMutex<()> {
        &self.mutexes[stripe]
    }

    /// The IP-branch boolean for a stripe.
    pub fn cell(&self, stripe: usize) -> &TCell<bool> {
        &self.cells[stripe]
    }

    /// The stripes whose keys can hash into bucket `b` of a table of `len`
    /// buckets (both powers of two): one stripe when the table has at
    /// least as many buckets as there are stripes, else every stripe
    /// congruent to `b` modulo `len`.
    pub fn bucket_stripes(&self, b: u64, len: u64) -> impl Iterator<Item = usize> {
        let n = self.cells.len();
        let step = len.min(n as u64) as usize;
        (b as usize & self.mask as usize..n).step_by(step)
    }

    /// Attempts to take a *victim's* stripe while other locks are held —
    /// the lock-order violation memcached performs with `trylock` (§3.1).
    /// `held` is the stripe the calling worker already owns (or
    /// `usize::MAX` for maintenance threads that hold none).
    pub fn try_lock_victim<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        stripe: usize,
        held: usize,
    ) -> Result<Option<VictimLock<'e>>, Abort> {
        match policy.item_mode {
            ItemMode::Transactional => Ok(Some(VictimLock::None)),
            ItemMode::Lock => {
                if stripe == held {
                    return Ok(Some(VictimLock::None));
                }
                Ok(self.mutexes[stripe].try_lock().map(VictimLock::Mutex))
            }
            ItemMode::Privatize => {
                if stripe == held {
                    return Ok(Some(VictimLock::None));
                }
                let cell = &self.cells[stripe];
                if ctx.get_word(cell.word())? != 0 {
                    return Ok(None); // held by someone: skip this victim
                }
                ctx.put_word(cell.word(), 1)?;
                Ok(Some(VictimLock::TxBool(stripe)))
            }
        }
    }

    /// Releases a victim lock taken by [`ItemLocks::try_lock_victim`].
    pub fn unlock_victim<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        guard: VictimLock<'e>,
    ) -> Result<(), Abort> {
        match guard {
            VictimLock::Mutex(g) => drop(g),
            VictimLock::TxBool(stripe) => ctx.put_word(self.cells[stripe].word(), 0)?,
            VictimLock::None => {}
        }
        Ok(())
    }
}

/// A successful `get`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetHit {
    /// The item found.
    pub handle: ItemHandle,
    /// A copy of the value.
    pub value: Vec<u8>,
    /// Client flags stored with the item.
    pub flags: u32,
    /// The item's CAS id.
    pub cas: u64,
    /// Relative expiry (0 = never) — carried so hot-key repopulation can
    /// preserve the TTL.
    pub exp: u32,
    /// Whether the LRU position is stale enough to bump.
    pub needs_bump: bool,
}

/// Why an allocation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The object exceeds the largest chunk (`SERVER_ERROR object too
    /// large for cache`).
    TooLarge,
    /// Memory exhausted and no evictable victim was found.
    OutOfMemory,
}

/// A successful allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// The freshly initialized (still private) item.
    pub handle: ItemHandle,
    /// How many items were evicted on the way.
    pub evicted: u32,
}

/// The shared cache state and its single-source operation logic.
pub struct CacheCore {
    /// Slab arena.
    pub arena: SlabArena,
    /// Hash table.
    pub assoc: AssocTable,
    /// One LRU list per slab class.
    pub lrus: Vec<LruList>,
    /// Striped item locks.
    pub item_locks: ItemLocks,
    /// `stats_lock`-guarded counters.
    pub global: GlobalStats,
    cas_counter: TCell<u64>,
    /// `flush_all` watermark: items last touched at or before this die.
    /// Every GET reads it, so it sits on a block of its own, away from
    /// `cas_counter` and the global counters that every store writes.
    pub oldest_live: OwnBlock<TCell<u64>>,
    /// Write-nonce for the durability log: operations whose engine commit
    /// would otherwise be fully read-only (an elided silent touch) bump
    /// this so the commit mints a fresh stamp for its redo record.
    pub dur_nonce: TCell<u64>,
}

impl std::fmt::Debug for CacheCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheCore")
            .field("arena", &self.arena)
            .field("assoc", &self.assoc)
            .finish_non_exhaustive()
    }
}

/// How many LRU tail candidates an allocation will consider before giving
/// up (memcached tries 50; scaled to our smaller LRUs).
const EVICTION_TRIES: usize = 10;

impl CacheCore {
    /// Builds the core from slab geometry and hash-table powers.
    pub fn new(
        slab_cfg: SlabConfig,
        hash_power: u32,
        hash_power_max: u32,
        item_lock_power: u32,
        profiler: &Profiler,
    ) -> Self {
        let arena = SlabArena::new(slab_cfg);
        let lrus = (0..arena.class_count()).map(|_| LruList::new()).collect();
        CacheCore {
            assoc: AssocTable::new(hash_power, hash_power_max),
            lrus,
            item_locks: ItemLocks::new(item_lock_power, profiler),
            global: GlobalStats::default(),
            cas_counter: TCell::new(0),
            oldest_live: OwnBlock(TCell::new(0)),
            dur_nonce: TCell::new(0),
            arena,
        }
    }

    /// Raises the CAS allocator to at least `floor`. Recovery calls this
    /// before replaying logged items so every post-restart CAS id is
    /// strictly above any id a pre-crash client observed.
    pub fn set_cas_floor<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, floor: u64) -> Result<(), Abort> {
        let cur = ctx.get_word(self.cas_counter.word())?;
        if cur < floor {
            ctx.put_word(self.cas_counter.word(), floor)?;
        }
        Ok(())
    }

    /// Whether the item is still alive at `now` (expiry + `flush_all`).
    fn is_live<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        h: ItemHandle,
        now: u32,
    ) -> Result<bool, Abort> {
        let it = self.arena.resolve(h);
        let (exp, last) = it.times(ctx)?;
        if exp != 0 && exp <= now {
            return Ok(false);
        }
        let watermark = ctx.get_word(self.oldest_live.word())?;
        Ok(watermark == 0 || last as u64 > watermark)
    }

    #[allow(clippy::too_many_arguments)]
    /// `do_item_get`: find, expiry-check, take a reference, copy the value
    /// out, release. `bump_hint` models the 60-second `item_update`
    /// rate-limit (the driver derives it from its op counter; wall-clock
    /// seconds barely advance in a benchmark run).
    ///
    /// `elide_refcount` is the §5 future-work optimization the paper
    /// credits to transactionalization ("it might be possible to replace
    /// the modifications of the reference count with a simple read",
    /// citing Dragojević et al.): inside a transaction the whole get is
    /// atomic, so the incr/decr pair can become a plain read. Only valid
    /// when item access is fully transactional (IT branches).
    pub fn item_get<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        hv: u32,
        now: u32,
        bump_hint: bool,
        elide_refcount: bool,
    ) -> Result<Option<GetHit>, Abort> {
        let Some(h) = self.assoc.find(ctx, policy, &self.arena, key, hv)? else {
            return Ok(None);
        };
        if !self.is_live(ctx, h, now)? {
            // Lazy expiry: unlink now.
            self.unlink_item(ctx, policy, h, hv)?;
            return Ok(None);
        }
        let it = self.arena.resolve(h);
        if elide_refcount {
            let rc = it.refcount(ctx, policy)?;
            // The read still participates in conflict detection, which is
            // exactly what makes the elision sound under TM.
            ctx.assert_that(policy, rc != u64::MAX, "impossible refcount")?;
        } else {
            let rc = it.ref_incr(ctx, policy)?;
            ctx.assert_that(policy, rc >= 1, "get raised refcount from garbage")?;
        }
        // Set-if-unset: a steady-state hit has ITEM_FETCHED already, and
        // skipping the redundant store keeps a refcount-elided GET free of
        // writes — i.e. on the read-only fast lane end to end.
        if it.flags(ctx)? & ITEM_FETCHED == 0 {
            it.update_flags(ctx, ITEM_FETCHED, 0)?;
        }
        let sizes = it.sizes(ctx)?;
        let value = it.read_value(ctx, policy, sizes)?;
        let flags = it.client_flags(ctx)?;
        let cas = it.cas(ctx)?;
        let (exp, _) = it.times(ctx)?;
        if !elide_refcount {
            self.item_release(ctx, policy, h)?;
        }
        Ok(Some(GetHit {
            handle: h,
            value,
            flags,
            cas,
            exp,
            needs_bump: bump_hint,
        }))
    }

    /// Releases one reference; frees the chunk when the item is dead
    /// (`do_item_remove`).
    pub fn item_release<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        let rc = it.ref_decr(ctx, policy)?;
        if rc == 0 && it.flags(ctx)? & ITEM_LINKED == 0 {
            self.arena.free(ctx, h)?;
        }
        Ok(())
    }

    /// `do_item_unlink`: drop from hash table and LRU; free if unreferenced.
    pub fn unlink_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        hv: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        if it.flags(ctx)? & ITEM_LINKED == 0 {
            return Ok(());
        }
        it.update_flags(ctx, 0, ITEM_LINKED)?;
        self.assoc.remove(ctx, policy, &self.arena, h, hv)?;
        self.lrus[h.class as usize].unlink(ctx, &self.arena, h)?;
        let cur = ctx.get_word(self.global.curr_items.word())?;
        ctx.put_word(self.global.curr_items.word(), cur.saturating_sub(1))?;
        if it.refcount(ctx, policy)? == 0 {
            self.arena.free(ctx, h)?;
        }
        Ok(())
    }

    /// `do_item_alloc`: pick a class, allocate (evicting from the class's
    /// LRU tail if the pool is dry), and initialize the header, key, and
    /// suffix. The returned item is private (refcount 1, unlinked) until
    /// [`CacheCore::link_item`]. `held_stripe` is the item-lock stripe the
    /// caller owns (for the trylock lock-order violation on victims).
    #[allow(clippy::too_many_arguments)]
    pub fn alloc_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        client_flags: u32,
        exptime: u32,
        nbytes: u32,
        now: u32,
        held_stripe: usize,
    ) -> Result<Result<Allocation, AllocError>, Abort> {
        let Some((sizes, class)) = self.size_item(key, client_flags, nbytes) else {
            return Ok(Err(AllocError::TooLarge));
        };
        let mut evicted = 0u32;
        let handle = loop {
            if let Some(h) = self.arena.alloc_from(ctx, policy, class)? {
                break h;
            }
            if evicted as usize >= EVICTION_TRIES
                || !self.evict_one(ctx, policy, class, held_stripe)?
            {
                // Ask the rebalancer for a page (raise the volatile signal
                // and record the starving class) before failing the store.
                ctx.put_word(self.arena.needy_class.word(), class as u64)?;
                ctx.volatile_write(policy, self.arena.rebalance_signal.word(), 1)?;
                return Ok(Err(AllocError::OutOfMemory));
            }
            evicted += 1;
        };
        if evicted > 0 {
            // Eviction pressure: same request, softer form.
            ctx.put_word(self.arena.needy_class.word(), class as u64)?;
            ctx.volatile_write(policy, self.arena.rebalance_signal.word(), 1)?;
        }
        self.init_item(ctx, policy, handle, key, client_flags, exptime, sizes, now)?;
        Ok(Ok(Allocation { handle, evicted }))
    }

    /// Sizing half of `do_item_alloc` (memcached's `item_make_header`):
    /// the suffix is rendered to find its length, then the smallest
    /// fitting class is picked. `None` means the object exceeds the
    /// largest chunk.
    pub fn size_item(
        &self,
        key: &[u8],
        client_flags: u32,
        nbytes: u32,
    ) -> Option<(ItemSizes, u8)> {
        let nsuffix = tmstd::item_suffix_len(client_flags, nbytes) as u8;
        let sizes = ItemSizes {
            nkey: key.len() as u8,
            nsuffix,
            nbytes,
        };
        self.arena.class_for(sizes.total()).map(|class| (sizes, class))
    }

    /// Initialization half of `do_item_alloc`: header, key, and suffix of
    /// a freshly allocated, still-private chunk (refcount 1, unlinked).
    /// The magazine store path calls this directly on a cached chunk,
    /// skipping the slab transaction entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn init_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        handle: ItemHandle,
        key: &[u8],
        client_flags: u32,
        exptime: u32,
        sizes: ItemSizes,
        now: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(handle);
        it.set_refcount(ctx, 1)?;
        it.set_flags(ctx, (handle.class as u64) << 8)?;
        it.set_times(ctx, exptime, now)?;
        it.set_sizes(ctx, sizes)?;
        it.set_cas(ctx, 0)?;
        it.set_client_flags(ctx, client_flags)?;
        it.write_key(ctx, key)?;
        it.write_suffix(ctx, policy, sizes, client_flags)
    }

    /// Magazine refill: pop up to `n` chunks of `class` in one call —
    /// meant to run inside ONE short transaction — evicting from the
    /// class's LRU when the pool runs dry. Eviction write-backs thereby
    /// batch into the refill instead of costing one slab transaction per
    /// SET. Returns `(chunks_popped, items_evicted)`; zero chunks means
    /// the pool is exhausted and nothing was evictable (the caller
    /// flushes magazines and/or raises the rebalance signal).
    pub fn refill_batch<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        class: u8,
        n: usize,
        out: &mut Vec<ItemHandle>,
    ) -> Result<(usize, usize), Abort> {
        let mut got = 0usize;
        let mut evicted = 0usize;
        while got < n {
            got += self.arena.alloc_batch(ctx, policy, class, n - got, out)?;
            if got >= n {
                break;
            }
            if evicted >= EVICTION_TRIES || !self.evict_one(ctx, policy, class, usize::MAX)? {
                break;
            }
            evicted += 1;
        }
        Ok((got, evicted))
    }

    /// Evicts one unreferenced item from the class's LRU tail, honoring
    /// the victim's item lock via `trylock` (Figure 1a). Returns whether a
    /// chunk was freed.
    fn evict_one<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        class: u8,
        held_stripe: usize,
    ) -> Result<bool, Abort> {
        let lru = &self.lrus[class as usize];
        let mut cur = lru.tail(ctx)?;
        for _ in 0..EVICTION_TRIES {
            let Some(h) = cur else { return Ok(false) };
            let it = self.arena.resolve(h);
            let prev = it.lru_prev(ctx)?;
            if it.refcount(ctx, policy)? == 0 {
                let sizes = it.sizes(ctx)?;
                let key = it.read_key(ctx, sizes.nkey)?;
                let hv = crate::hashes::jenkins_hash(&key, 0);
                let stripe = self.item_locks.stripe(hv);
                match self
                    .item_locks
                    .try_lock_victim(ctx, policy, stripe, held_stripe)?
                {
                    Some(guard) => {
                        self.unlink_item(ctx, policy, h, hv)?;
                        let ev = ctx.get_word(self.global.evictions.word())?;
                        ctx.put_word(self.global.evictions.word(), ev + 1)?;
                        self.item_locks.unlock_victim(ctx, guard)?;
                        return Ok(true);
                    }
                    None => {
                        // Figure 1a's save_for_later path: skip the busy
                        // victim and try the next-oldest.
                    }
                }
            }
            cur = prev;
        }
        Ok(false)
    }

    /// `do_item_link`: publish a private item under `key`'s hash. Returns
    /// `true` when this insert crossed the load factor and an expansion
    /// was started (the caller signals the maintenance thread).
    pub fn link_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let it = self.arena.resolve(h);
        it.update_flags(ctx, ITEM_LINKED, 0)?;
        let cas = ctx.fetch_add_word(self.cas_counter.word(), 1)? + 1;
        it.set_cas(ctx, cas)?;
        let wants_expansion = self.assoc.insert(ctx, policy, &self.arena, h, hv)?;
        self.lrus[h.class as usize].link_head(ctx, &self.arena, h)?;
        let cur = ctx.get_word(self.global.curr_items.word())?;
        ctx.put_word(self.global.curr_items.word(), cur + 1)?;
        let tot = ctx.get_word(self.global.total_items.word())?;
        ctx.put_word(self.global.total_items.word(), tot + 1)?;
        if wants_expansion {
            // May be a no-op at maximum size; the maintainer still gets
            // woken (and finds nothing to do), as in Figure 2.
            self.assoc.start_expansion(ctx, policy)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Replaces any existing item under `key` with `new_h` (the second
    /// half of `do_store_item` for `set`).
    pub fn replace_existing<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        hv: u32,
        new_h: ItemHandle,
    ) -> Result<bool, Abort> {
        if let Some(old) = self.assoc.find(ctx, policy, &self.arena, key, hv)? {
            if old != new_h {
                self.unlink_item(ctx, policy, old, hv)?;
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// `do_item_update`: re-position in the LRU and refresh last-access.
    pub fn update_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        now: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        if it.flags(ctx)? & ITEM_LINKED == 0 {
            return Ok(()); // raced with an unlink; nothing to do
        }
        let _ = policy;
        self.lrus[h.class as usize].bump(ctx, &self.arena, h)?;
        let (exp, _) = it.times(ctx)?;
        it.set_times(ctx, exp, now)
    }

    #[allow(clippy::too_many_arguments)]
    /// `do_add_delta`: parse the stored decimal value (libc `strtoull`
    /// until Lib), apply the delta, and rewrite in place (libc `snprintf`
    /// until Lib). `None` = key missing; `Err(())` in the inner result =
    /// the stored value is not a number; `Ok((new, cas))` carries the new
    /// value and the CAS id this rewrite assigned (for the redo log).
    pub fn arith<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        hv: u32,
        delta: u64,
        incr: bool,
        now: u32,
    ) -> Result<Option<Result<(u64, u64), ()>>, Abort> {
        let Some(h) = self.assoc.find(ctx, policy, &self.arena, key, hv)? else {
            return Ok(None);
        };
        if !self.is_live(ctx, h, now)? {
            self.unlink_item(ctx, policy, h, hv)?;
            return Ok(None);
        }
        let it = self.arena.resolve(h);
        let mut sizes = it.sizes(ctx)?;
        let voff = it.value_off(sizes);
        let n = sizes.nbytes as usize;
        // memcached's safe_strtoull: the whole value must be a number,
        // modulo surrounding whitespace.
        let marshal = |buf: &[u8]| -> Option<u64> {
            let (v, used) = tmstd::parse_u64(buf)?;
            buf[used..]
                .iter()
                .all(|&b| b == 0 || tmstd::isspace(b))
                .then_some(v)
        };
        let parsed = if n > 40 {
            None // not a plausible decimal; memcached fails the parse
        } else if !ctx.in_transaction() || policy.is_safe(Category::Libc) {
            let mut buf = vec![0u8; n];
            tmstd::memcpy_to_slice(ctx, it.page, voff, &mut buf)?;
            tmstd::pure(|| marshal(&buf))
        } else {
            let page = it.page;
            ctx.unsafe_op(move || {
                let mut buf = vec![0u8; n];
                page.load_slice_direct(voff, &mut buf);
                marshal(&buf)
            })?
        };
        let Some(old) = parsed else {
            return Ok(Some(Err(())));
        };
        let new = if incr {
            old.wrapping_add(delta)
        } else {
            old.saturating_sub(delta)
        };
        let text = tmstd::pure(|| new.to_string().into_bytes());
        let capacity = self.arena.class(h.class).chunk_size
            - crate::item::HDR_BYTES
            - sizes.nkey as usize
            - sizes.nsuffix as usize;
        if text.len() > capacity {
            return Ok(Some(Err(())));
        }
        if !ctx.in_transaction() || policy.is_safe(Category::Libc) {
            tmstd::memcpy_from_slice(ctx, it.page, voff, &text)?;
        } else {
            let page = it.page;
            let t = text.clone();
            ctx.unsafe_op(move || page.store_slice_direct(voff, &t))?;
        }
        sizes.nbytes = text.len() as u32;
        it.set_sizes(ctx, sizes)?;
        let cas = ctx.fetch_add_word(self.cas_counter.word(), 1)? + 1;
        it.set_cas(ctx, cas)?;
        Ok(Some(Ok((new, cas))))
    }

    /// `flush_all`: everything last touched at or before `now` dies
    /// lazily.
    pub fn flush_all<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, now: u32) -> Result<(), Abort> {
        ctx.put_word(self.oldest_live.word(), now as u64)?;
        let f = ctx.get_word(self.global.flush_cmds.word())?;
        ctx.put_word(self.global.flush_cmds.word(), f + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Branch;

    fn core() -> CacheCore {
        CacheCore::new(
            SlabConfig {
                mem_limit: 256 << 10,
                page_size: 16 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            6,
            10,
            4,
            &Profiler::new(),
        )
    }

    /// The words every GET reads (the hash generation, the expansion flag,
    /// the `flush_all` watermark) share no orec block with the counters
    /// every store writes: one orec covers 64 bytes, so a shared block
    /// would make each store abort every concurrent GET.
    #[test]
    fn read_hot_words_share_no_block_with_write_hot_counters() {
        let c = core();
        let block = |w: &tm::TWord| w as *const tm::TWord as usize / 64;
        let read_hot = [
            ("gen", block(c.assoc.gen.word())),
            ("expanding", block(c.assoc.expanding.word())),
            ("oldest_live", block(c.oldest_live.word())),
        ];
        let write_hot = [
            ("hash_items", block(c.assoc.hash_items.word())),
            ("cas_counter", block(c.cas_counter.word())),
            ("curr_items", block(c.global.curr_items.word())),
        ];
        for (r, rb) in read_hot {
            for (w, wb) in write_hot {
                assert_ne!(rb, wb, "{r} shares a 64-byte block with {w}");
            }
        }
    }

    fn set(
        core: &CacheCore,
        policy: &Policy,
        key: &[u8],
        value: &[u8],
        exptime: u32,
        now: u32,
    ) -> ItemHandle {
        let mut ctx = Ctx::Direct;
        let hv = crate::hashes::jenkins_hash(key, 0);
        let a = core
            .alloc_item(&mut ctx, policy, key, 0, exptime, value.len() as u32, now, usize::MAX)
            .unwrap()
            .unwrap();
        let it = core.arena.resolve(a.handle);
        let sizes = it.sizes(&mut ctx).unwrap();
        it.write_value(&mut ctx, policy, sizes, value).unwrap();
        core.replace_existing(&mut ctx, policy, key, hv, a.handle)
            .unwrap();
        core.link_item(&mut ctx, policy, a.handle, hv).unwrap();
        core.item_release(&mut ctx, policy, a.handle).unwrap();
        a.handle
    }

    fn get(core: &CacheCore, policy: &Policy, key: &[u8], now: u32) -> Option<Vec<u8>> {
        let mut ctx = Ctx::Direct;
        let hv = crate::hashes::jenkins_hash(key, 0);
        core.item_get(&mut ctx, policy, key, hv, now, false, false)
            .unwrap()
            .map(|h| h.value)
    }

    #[test]
    fn set_get_roundtrip() {
        let c = core();
        let p = Branch::Baseline.policy();
        set(&c, &p, b"hello", b"world", 0, 1);
        assert_eq!(get(&c, &p, b"hello", 1), Some(b"world".to_vec()));
        assert_eq!(get(&c, &p, b"missing", 1), None);
    }

    #[test]
    fn overwrite_replaces_value_and_bumps_cas() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"k", b"v1", 0, 1);
        let hv = crate::hashes::jenkins_hash(b"k", 0);
        let cas1 = c
            .item_get(&mut ctx, &p, b"k", hv, 1, false, false)
            .unwrap()
            .unwrap()
            .cas;
        set(&c, &p, b"k", b"v2-longer", 0, 2);
        let hit = c.item_get(&mut ctx, &p, b"k", hv, 2, false, false).unwrap().unwrap();
        assert_eq!(hit.value, b"v2-longer");
        assert!(hit.cas > cas1);
        assert_eq!(c.global.snapshot_direct().curr_items, 1);
    }

    #[test]
    fn expiry_is_lazy_but_effective() {
        let c = core();
        let p = Branch::Baseline.policy();
        set(&c, &p, b"ttl", b"v", 5, 1);
        assert!(get(&c, &p, b"ttl", 4).is_some());
        assert!(get(&c, &p, b"ttl", 5).is_none(), "expired at its exptime");
        assert!(get(&c, &p, b"ttl", 6).is_none());
        assert_eq!(c.global.snapshot_direct().curr_items, 0, "lazy unlink ran");
    }

    #[test]
    fn flush_all_kills_older_items() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"old", b"v", 0, 1);
        c.flush_all(&mut ctx, 3).unwrap();
        assert!(get(&c, &p, b"old", 4).is_none());
        set(&c, &p, b"new", b"v", 0, 5);
        assert!(get(&c, &p, b"new", 6).is_some());
    }

    #[test]
    fn delete_frees_chunk() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = set(&c, &p, b"gone", b"v", 0, 1);
        let class = h.class;
        let free_before = c.arena.free_chunks(&mut ctx, class).unwrap();
        let hv = crate::hashes::jenkins_hash(b"gone", 0);
        c.unlink_item(&mut ctx, &p, h, hv).unwrap();
        assert_eq!(get(&c, &p, b"gone", 1), None);
        assert_eq!(c.arena.free_chunks(&mut ctx, class).unwrap(), free_before + 1);
    }

    #[test]
    fn eviction_reclaims_lru_tail() {
        let c = core();
        let p = Branch::Baseline.policy();
        // Fill the cache with large values until eviction must occur.
        let value = vec![7u8; 4000];
        for i in 0..200 {
            let key = format!("evict-{i}");
            set(&c, &p, key.as_bytes(), &value, 0, 1);
        }
        let s = c.global.snapshot_direct();
        assert!(s.evictions > 0, "expected evictions, got {s:?}");
        // The most recent key must still be there.
        assert!(get(&c, &p, b"evict-199", 1).is_some());
    }

    #[test]
    fn arith_incr_decr() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"n", b"41", 0, 1);
        let hv = crate::hashes::jenkins_hash(b"n", 0);
        let r = c.arith(&mut ctx, &p, b"n", hv, 1, true, 1).unwrap();
        assert!(matches!(r, Some(Ok((42, _)))), "got {r:?}");
        let cas1 = r.unwrap().unwrap().1;
        assert_eq!(get(&c, &p, b"n", 1), Some(b"42".to_vec()));
        let r = c.arith(&mut ctx, &p, b"n", hv, 50, false, 1).unwrap();
        assert!(
            matches!(r, Some(Ok((0, _)))),
            "decr saturates at zero like memcached: {r:?}"
        );
        assert!(r.unwrap().unwrap().1 > cas1, "each arith assigns a fresh cas");
        assert_eq!(
            c.arith(&mut ctx, &p, b"nope", hv, 1, true, 1).unwrap(),
            None
        );
        set(&c, &p, b"s", b"abc", 0, 1);
        let hv2 = crate::hashes::jenkins_hash(b"s", 0);
        assert_eq!(
            c.arith(&mut ctx, &p, b"s", hv2, 1, true, 1).unwrap(),
            Some(Err(())),
            "non-numeric value"
        );
    }

    #[test]
    fn update_bumps_lru() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let a = set(&c, &p, b"a", b"v", 0, 1);
        let b = set(&c, &p, b"b", b"v", 0, 1);
        assert_eq!(a.class, b.class);
        let lru = &c.lrus[a.class as usize];
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(a));
        c.update_item(&mut ctx, &p, a, 2).unwrap();
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(b));
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(a));
    }

    #[test]
    fn too_large_rejected() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let r = c
            .alloc_item(&mut ctx, &p, b"big", 0, 0, 1 << 20, 1, usize::MAX)
            .unwrap();
        assert_eq!(r, Err(AllocError::TooLarge));
    }

    #[test]
    fn refcounted_item_survives_unlink_until_release() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = set(&c, &p, b"held", b"v", 0, 1);
        let it = c.arena.resolve(h);
        // A reader takes a reference...
        it.ref_incr(&mut ctx, &p).unwrap();
        let hv = crate::hashes::jenkins_hash(b"held", 0);
        c.unlink_item(&mut ctx, &p, h, hv).unwrap();
        // ...chunk not freed yet (reader still holds it).
        assert_eq!(it.flags(&mut ctx).unwrap() & crate::item::ITEM_SLABBED, 0);
        c.item_release(&mut ctx, &p, h).unwrap();
        assert_ne!(it.flags(&mut ctx).unwrap() & crate::item::ITEM_SLABBED, 0);
    }
}
