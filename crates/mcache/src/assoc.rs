//! The hash table (`assoc.c`): chained buckets with incremental expansion
//! driven by a maintenance thread — the `cache_lock` category of §3.1 and
//! one of the two condition-synchronization patterns of §3.2.
//!
//! memcached keeps a primary table and, while `expanding` (a `volatile`
//! flag — a paper serialization site), the previous table; lookups route by
//! comparing the item's old bucket against `expand_bucket`, the migration
//! frontier. Because transactional cells must have stable addresses, every
//! generation's bucket array is preallocated at construction and the table
//! "grows" by advancing the active generation.

use tm::layout::OwnBlock;
use tm::{Abort, TCell, Word};
use tmstd::ByteAccess;

use crate::ctx::Ctx;
use crate::item::{decode_opt, encode_opt, ItemHandle};
use crate::policy::Policy;
use crate::slabs::SlabArena;

/// The chained hash table.
pub struct AssocTable {
    generations: Vec<Box<[TCell<u64>]>>,
    start_power: u32,
    /// Active generation: every lookup reads it.
    pub(crate) gen: TCell<u64>,
    /// The `volatile` expansion flag (serialization site pre-Max).
    pub(crate) expanding: TCell<bool>,
    /// Migration frontier: old buckets below this index have moved.
    expand_bucket: TCell<u64>,
    /// Linked-item count: every link and unlink writes it, so it sits on
    /// a block of its own, away from the words every lookup reads.
    pub(crate) hash_items: OwnBlock<TCell<u64>>,
}

impl std::fmt::Debug for AssocTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssocTable")
            .field("start_power", &self.start_power)
            .field("max_power", &(self.start_power + self.generations.len() as u32 - 1))
            .finish()
    }
}

impl AssocTable {
    /// Creates a table with `2^start_power` buckets, expandable up to
    /// `2^max_power`.
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= start_power <= max_power <= 24`.
    pub fn new(start_power: u32, max_power: u32) -> Self {
        assert!((4..=24).contains(&start_power) && start_power <= max_power && max_power <= 24);
        let generations = (start_power..=max_power)
            .map(|p| (0..1usize << p).map(|_| TCell::new(0u64)).collect())
            .collect();
        AssocTable {
            generations,
            start_power,
            gen: TCell::new(0),
            expanding: TCell::new(false),
            expand_bucket: TCell::new(0),
            hash_items: OwnBlock(TCell::new(0)),
        }
    }

    fn mask(&self, gen: usize) -> u32 {
        (1u32 << (self.start_power + gen as u32)) - 1
    }

    /// Total buckets in the active generation (diagnostic).
    pub fn bucket_count<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<usize, Abort> {
        let g = ctx.get_word(self.gen.word())? as usize;
        Ok(self.generations[g].len())
    }

    /// Items currently linked.
    pub fn item_count<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<u64, Abort> {
        ctx.get_word(self.hash_items.word())
    }

    /// Whether an expansion is in progress. Reads the `volatile` flag, so
    /// this is a serialization site before the Max stage.
    pub fn is_expanding<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
    ) -> Result<bool, Abort> {
        Ok(ctx.volatile_read(policy, self.expanding.word())? != 0)
    }

    /// The bucket cell a key with hash `hv` lives in right now, honoring
    /// the expansion frontier (memcached's `assoc_find` routing).
    fn bucket_cell<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        hv: u32,
    ) -> Result<&'e TCell<u64>, Abort> {
        let g = ctx.get_word(self.gen.word())? as usize;
        if self.is_expanding(ctx, policy)? {
            let old = g - 1;
            let ob = hv & self.mask(old);
            let frontier = ctx.volatile_read(policy, self.expand_bucket.word())?;
            if (ob as u64) >= frontier {
                return Ok(&self.generations[old][ob as usize]);
            }
        }
        Ok(&self.generations[g][(hv & self.mask(g)) as usize])
    }

    /// Finds the linked item with this key (`assoc_find` + key compare).
    /// The per-item comparison is libc `memcmp` until the Lib stage.
    pub fn find<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        key: &[u8],
        hv: u32,
    ) -> Result<Option<ItemHandle>, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        let mut cur = decode_opt(ctx.get_word(cell.word())?);
        let mut depth = 0;
        while let Some(h) = cur {
            depth += 1;
            ctx.assert_that(policy, depth <= 100_000, "hash chain cycle")?;
            let it = arena.resolve(h);
            let sizes = it.sizes(ctx)?;
            if it.key_eq(ctx, policy, key, sizes.nkey)? {
                return Ok(Some(h));
            }
            cur = it.hnext(ctx)?;
        }
        Ok(None)
    }

    /// Links an item into its bucket (`assoc_insert`). Returns `true` when
    /// the load factor says an expansion should start — the caller decides
    /// whether to begin one and signal the maintenance thread.
    pub fn insert<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        let head = decode_opt(ctx.get_word(cell.word())?);
        let it = arena.resolve(h);
        it.set_hnext(ctx, head)?;
        ctx.put_word(cell.word(), h.to_word())?;
        let n = ctx.get_word(self.hash_items.word())? + 1;
        ctx.put_word(self.hash_items.word(), n)?;
        let g = ctx.get_word(self.gen.word())? as usize;
        // memcached's mx_needed() check runs on every insert; once the
        // table is saturated (or mid-expansion) every set keeps asking for
        // the maintainer — the per-set sem_post site of §3.5.
        let wants_expansion = n > (self.generations[g].len() as u64 * 3) / 2
            && !self.is_expanding(ctx, policy)?;
        Ok(wants_expansion)
    }

    /// Unlinks an item from its bucket (`assoc_delete`). Returns `true` if
    /// it was found.
    pub fn remove<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        let mut prev: Option<ItemHandle> = None;
        let mut cur = decode_opt(ctx.get_word(cell.word())?);
        let mut depth = 0;
        while let Some(c) = cur {
            depth += 1;
            ctx.assert_that(policy, depth <= 100_000, "hash chain cycle")?;
            let it = arena.resolve(c);
            let next = it.hnext(ctx)?;
            if c == h {
                match prev {
                    None => ctx.put_word(cell.word(), encode_opt(next))?,
                    Some(p) => arena.resolve(p).set_hnext(ctx, next)?,
                }
                it.set_hnext(ctx, None)?;
                let n = ctx.get_word(self.hash_items.word())?;
                ctx.assert_that(policy, n > 0, "hash_items underflow")?;
                ctx.put_word(self.hash_items.word(), n - 1)?;
                return Ok(true);
            }
            prev = Some(c);
            cur = next;
        }
        Ok(false)
    }

    /// Begins an expansion (`assoc_expand`): advances the generation and
    /// raises the `expanding` flag. The maintenance thread then migrates.
    /// Returns `false` if the table is already at maximum size or already
    /// expanding.
    pub fn start_expansion<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
    ) -> Result<bool, Abort> {
        let g = ctx.get_word(self.gen.word())? as usize;
        if self.is_expanding(ctx, policy)? || g + 1 >= self.generations.len() {
            return Ok(false);
        }
        ctx.put_word(self.gen.word(), g as u64 + 1)?;
        ctx.volatile_write(policy, self.expand_bucket.word(), 0)?;
        ctx.volatile_write(policy, self.expanding.word(), 1)?;
        Ok(true)
    }

    /// The old-generation buckets the next [`AssocTable::migrate_step`] of
    /// `batch` will move, with the old generation's bucket count, or
    /// `None` when no expansion is in progress. Once `expanding` has been
    /// seen set, only the maintenance thread moves the frontier or clears
    /// the flag, so the maintainer may act on this answer after the lock
    /// that read it is dropped.
    pub fn next_migration<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        batch: usize,
    ) -> Result<Option<(std::ops::Range<u64>, u64)>, Abort> {
        if !self.is_expanding(ctx, policy)? {
            return Ok(None);
        }
        let g = ctx.get_word(self.gen.word())? as usize;
        let old_len = self.generations[g - 1].len() as u64;
        let frontier = ctx.volatile_read(policy, self.expand_bucket.word())?;
        Ok(Some((frontier..(frontier + batch as u64).min(old_len), old_len)))
    }

    /// Migrates up to `batch` old buckets into the new generation
    /// (`assoc_maintenance_thread`'s inner loop). Returns `true` when the
    /// expansion completed in this call.
    pub fn migrate_step<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        batch: usize,
    ) -> Result<bool, Abort> {
        if !self.is_expanding(ctx, policy)? {
            return Ok(false);
        }
        let g = ctx.get_word(self.gen.word())? as usize;
        let old = g - 1;
        let old_len = self.generations[old].len() as u64;
        let mut frontier = ctx.volatile_read(policy, self.expand_bucket.word())?;
        for _ in 0..batch {
            if frontier >= old_len {
                break;
            }
            let cell = &self.generations[old][frontier as usize];
            let mut cur = decode_opt(ctx.get_word(cell.word())?);
            while let Some(h) = cur {
                let it = arena.resolve(h);
                let next = it.hnext(ctx)?;
                let sizes = it.sizes(ctx)?;
                // Re-hash from the stored key (libc strlen/memcmp-adjacent
                // work in real memcached; reading the key is instrumented).
                let key = it.read_key(ctx, sizes.nkey)?;
                let hv = crate::hashes::jenkins_hash(&key, 0);
                let nb = (hv & self.mask(g)) as usize;
                let ncell = &self.generations[g][nb];
                let nhead = decode_opt(ctx.get_word(ncell.word())?);
                it.set_hnext(ctx, nhead)?;
                ctx.put_word(ncell.word(), h.to_word())?;
                cur = next;
            }
            ctx.put_word(cell.word(), 0)?;
            frontier += 1;
        }
        ctx.volatile_write(policy, self.expand_bucket.word(), frontier)?;
        if frontier >= old_len {
            ctx.volatile_write(policy, self.expanding.word(), 0)?;
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemSizes;
    use crate::policy::Branch;
    use crate::slabs::{SlabArena, SlabConfig};

    fn setup() -> (SlabArena, AssocTable) {
        let arena = SlabArena::new(SlabConfig {
            mem_limit: 256 << 10,
            page_size: 16 << 10,
            chunk_min: 96,
            growth_factor: 2.0,
        });
        (arena, AssocTable::new(4, 8))
    }

    fn put_item(arena: &SlabArena, key: &[u8]) -> (ItemHandle, u32) {
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = arena.alloc_from(&mut ctx, &p, 0).unwrap().unwrap();
        let it = arena.resolve(h);
        it.set_sizes(
            &mut ctx,
            ItemSizes {
                nkey: key.len() as u8,
                nsuffix: 0,
                nbytes: 0,
            },
        )
        .unwrap();
        it.write_key(&mut ctx, key).unwrap();
        (h, crate::hashes::jenkins_hash(key, 0))
    }

    #[test]
    fn insert_find_remove() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let (h, hv) = put_item(&arena, b"alpha");
        t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
        assert_eq!(t.find(&mut ctx, &p, &arena, b"alpha", hv).unwrap(), Some(h));
        assert_eq!(t.find(&mut ctx, &p, &arena, b"beta", hv).unwrap(), None);
        assert!(t.remove(&mut ctx, &p, &arena, h, hv).unwrap());
        assert_eq!(t.find(&mut ctx, &p, &arena, b"alpha", hv).unwrap(), None);
        assert!(!t.remove(&mut ctx, &p, &arena, h, hv).unwrap());
        assert_eq!(t.item_count(&mut ctx).unwrap(), 0);
    }

    #[test]
    fn chains_handle_collisions() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        // Force same bucket by using the same hv for distinct keys.
        let (h1, _) = put_item(&arena, b"key-one");
        let (h2, _) = put_item(&arena, b"key-two");
        let hv = 0x42;
        t.insert(&mut ctx, &p, &arena, h1, hv).unwrap();
        t.insert(&mut ctx, &p, &arena, h2, hv).unwrap();
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-one", hv).unwrap(), Some(h1));
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-two", hv).unwrap(), Some(h2));
        assert!(t.remove(&mut ctx, &p, &arena, h1, hv).unwrap());
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-two", hv).unwrap(), Some(h2));
    }

    #[test]
    fn expansion_migrates_and_finds() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let mut items = Vec::new();
        let mut wanted = false;
        for i in 0..40 {
            let key = format!("exp-key-{i}");
            let (h, hv) = put_item(&arena, key.as_bytes());
            wanted |= t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
            items.push((key, h, hv));
        }
        assert!(wanted, "40 items in 16 buckets must request expansion");
        assert!(t.start_expansion(&mut ctx, &p).unwrap());
        assert!(t.is_expanding(&mut ctx, &p).unwrap());
        // Everything findable mid-expansion.
        for (key, h, hv) in &items {
            assert_eq!(
                t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(),
                Some(*h),
                "lost {key} mid-expansion"
            );
        }
        // Migrate in small steps.
        let mut done = false;
        for _ in 0..100 {
            if t.migrate_step(&mut ctx, &p, &arena, 2).unwrap() {
                done = true;
                break;
            }
        }
        assert!(done, "expansion never completed");
        assert!(!t.is_expanding(&mut ctx, &p).unwrap());
        assert_eq!(t.bucket_count(&mut ctx).unwrap(), 32);
        for (key, h, hv) in &items {
            assert_eq!(
                t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(),
                Some(*h),
                "lost {key} after expansion"
            );
        }
    }

    #[test]
    fn insert_routes_to_old_generation_behind_frontier() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        t.start_expansion(&mut ctx, &p).unwrap();
        let (h, hv) = put_item(&arena, b"mid-expansion");
        t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
        assert_eq!(
            t.find(&mut ctx, &p, &arena, b"mid-expansion", hv).unwrap(),
            Some(h)
        );
        // Finish migration; still findable.
        while !t.migrate_step(&mut ctx, &p, &arena, 8).unwrap() {}
        assert_eq!(
            t.find(&mut ctx, &p, &arena, b"mid-expansion", hv).unwrap(),
            Some(h)
        );
    }

    #[test]
    fn remove_works_mid_expansion() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let mut items = Vec::new();
        for i in 0..30 {
            let key = format!("rm-{i}");
            let (h, hv) = put_item(&arena, key.as_bytes());
            t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
            items.push((key, h, hv));
        }
        t.start_expansion(&mut ctx, &p).unwrap();
        // Migrate half, then remove items on both sides of the frontier.
        t.migrate_step(&mut ctx, &p, &arena, 8).unwrap();
        for (key, h, hv) in &items {
            assert!(
                t.remove(&mut ctx, &p, &arena, *h, *hv).unwrap(),
                "failed to remove {key} mid-expansion"
            );
            assert_eq!(t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(), None);
        }
        assert_eq!(t.item_count(&mut ctx).unwrap(), 0);
        // Finish the migration over the now-empty remainder.
        while !t.migrate_step(&mut ctx, &p, &arena, 8).unwrap() {}
        assert!(!t.is_expanding(&mut ctx, &p).unwrap());
    }

    #[test]
    fn expansion_stops_at_max_power() {
        let (arena, t) = setup();
        let _ = arena;
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        for _ in 0..4 {
            if t.start_expansion(&mut ctx, &p).unwrap() {
                // complete it instantly (no items linked)
                while !t.migrate_step(&mut ctx, &p, &arena, 64).unwrap() {}
            }
        }
        assert!(!t.start_expansion(&mut ctx, &p).unwrap(), "must stop at 2^8");
    }
}
