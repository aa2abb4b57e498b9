//! [`McCache`]: the cache façade with one operation driver per branch
//! family — lock-based (Baseline/Semaphore), IP (privatized item locks),
//! and IT (transactional item sections) — plus the two maintenance threads
//! (hash-table expansion and slab rebalancing) and their condition
//! synchronization in both the condvar (Figure 2, left) and semaphore
//! (Figure 2, comments) forms.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lockprof::{ProfiledMutex, Profiler};
use lockprof::sync::Condvar;
use tm::{Abort, Algorithm, ContentionManager, RelaxedPlan, SerialLockMode, StatsSnapshot, TmRuntime, Transaction};
use tmstd::ByteAccess;

use crate::core::{AllocError, CacheCore, GetHit};
use crate::ctx::Ctx;
use crate::dur::{self, DurLog, DurSnapshot, Record};
use crate::hashes::jenkins_hash;
use crate::hot::{HotLookup, HotSet, HotSketch, HotState};
use crate::item::ItemHandle;
use crate::policy::{Branch, Category, ItemMode, Policy, SectionKind};
use crate::sem::Semaphore;
use crate::slabs::SlabConfig;
use crate::stats::{GlobalSnapshot, ThreadSnapshot, ThreadStats};

/// Longest accepted key, as in memcached.
pub const KEY_MAX: usize = 250;

/// Every Nth GET of a hot key deliberately bypasses the privatized copy
/// and runs the real transactional lookup, so the backing item keeps
/// collecting LRU bumps (a hot key served purely from the hot set would
/// age to the LRU tail and be evicted).
const HOT_REFRESH_EVERY: u64 = 64;

/// Minimum epoch sketch count for a key hash to be worth arming.
const HOT_MIN_COUNT: u64 = 8;

/// Old hash buckets the maintenance thread migrates per batch.
const MIGRATE_BATCH: usize = 4;

/// Bounds for the controller's magazine-capacity retuning.
const MAG_MIN: usize = 2;
const MAG_MAX: usize = 1024;

/// Cache configuration.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Which point of the paper's history to run.
    pub branch: Branch,
    /// STM algorithm for the transactional branches (Figure 11).
    pub algorithm: Algorithm,
    /// Contention manager; `None` derives GCC's default (serialize-after-
    /// 100) when the serial lock is present, and no-CM otherwise.
    pub contention: Option<ContentionManager>,
    /// Slab geometry.
    pub slab: SlabConfig,
    /// Initial hash power (2^n buckets).
    pub hash_power: u32,
    /// Maximum hash power the table can expand to.
    pub hash_power_max: u32,
    /// Item-lock stripes (2^n).
    pub item_lock_power: u32,
    /// Number of worker slots (per-thread stats blocks).
    pub workers: usize,
    /// Verbose logging (the `fprintf(stderr, ...)` serialization site).
    pub verbose: bool,
    /// Bump an item's LRU position on every Nth get per worker — the
    /// compressed model of memcached's 60-second `item_update` rule.
    pub lru_bump_every: u64,
    /// Run the two maintenance threads.
    pub maintenance: bool,
    /// §5 future-work optimization: on IT branches, replace the get path's
    /// refcount incr/decr pair with a plain transactional read (valid
    /// because the whole get is one atomic transaction). Ignored on lock
    /// and IP branches, where privatized readers still need real
    /// reference counts.
    pub refcount_elision: bool,
    /// Per-worker slab-magazine capacity, in chunks per size class; 0
    /// disables the magazines (the default, which keeps the Tables 1–4
    /// serialization profile bit-identical). When set on an IT branch,
    /// each worker keeps a private cache of free chunks restocked and
    /// drained in short dedicated transactions, so a steady-state SET
    /// stops transactionally touching the global per-class free lists:
    /// allocation becomes a private pop, and the whole store (header,
    /// value, link, stats) collapses into one transaction. Ignored on
    /// lock and IP branches.
    pub magazine: usize,
    /// Commit-clock shards for the STM runtime (power of two in `1..=64`).
    /// The default of 8 spreads eager/lazy commit CASes over eight cache
    /// lines with worker→shard affinity; 1 reproduces the classic global
    /// clock timestamp-for-timestamp (the `tablecheck` configuration).
    pub clock_shards: usize,
    /// Directory for the commit-time redo log (DESIGN §14). `None` (the
    /// default) disables durability entirely — no hook, no handler, no
    /// cost on the commit path. When set, startup replays any surviving
    /// segments before the cache accepts operations.
    pub dur_path: Option<std::path::PathBuf>,
    /// When the redo-log writer calls `fdatasync`; ignored without
    /// [`McConfig::dur_path`].
    pub dur_fsync: crate::dur::DurFsync,
    /// Redo-log segment size: the writer rotates to a fresh segment file
    /// before exceeding this many bytes.
    pub dur_segment_bytes: u64,
    /// Recovery-time compaction trigger: once the log exceeds one segment,
    /// rewrite it as a single sealed segment whenever the live entries
    /// account for less than this fraction of the on-disk bytes.
    pub dur_compact_ratio: f64,
    /// Run the adaptive controller (DESIGN §15): a feedback thread that
    /// samples TM and cache counters every [`McConfig::adapt_epoch_ms`]
    /// and retunes the running configuration — algorithm + contention
    /// manager via [`tm::TmRuntime::switch_config`], the LRU-bump cadence,
    /// the per-worker magazine capacity, and the hot-key set. Only
    /// meaningful on transactional branches; ignored elsewhere.
    pub adapt: bool,
    /// The controller's sampling epoch, in milliseconds.
    pub adapt_epoch_ms: u64,
    /// Hot-key privatization slots (rounded up to a power of two). 0
    /// disables the hot set entirely; nonzero arms it for the controller
    /// (or tests) to install keys into. Transactional branches only.
    pub hot_slots: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            branch: Branch::Baseline,
            algorithm: Algorithm::Eager,
            contention: None,
            slab: SlabConfig::default(),
            hash_power: 12,
            hash_power_max: 17,
            item_lock_power: 8,
            workers: 4,
            verbose: false,
            lru_bump_every: 8,
            maintenance: true,
            refcount_elision: false,
            magazine: 0,
            clock_shards: 8,
            dur_path: None,
            dur_fsync: crate::dur::DurFsync::EveryN(32),
            dur_segment_bytes: 4 << 20,
            dur_compact_ratio: 0.5,
            adapt: false,
            adapt_epoch_ms: 50,
            hot_slots: 0,
        }
    }
}

/// A returned value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetValue {
    /// The stored bytes.
    pub data: Vec<u8>,
    /// Client flags.
    pub flags: u32,
    /// CAS id.
    pub cas: u64,
}

/// Store command flavors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
    /// Store only if present with this CAS id.
    Cas(u64),
}

/// Store command outcomes (the memcached protocol's reply set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreStatus {
    /// `STORED`.
    Stored,
    /// `NOT_STORED` (failed `add`/`replace` predicate).
    NotStored,
    /// `EXISTS` (CAS mismatch).
    Exists,
    /// `NOT_FOUND` (CAS on a missing key).
    NotFound,
    /// `SERVER_ERROR object too large for cache`.
    TooLarge,
    /// `SERVER_ERROR out of memory storing object`.
    OutOfMemory,
}

/// One operation of a [`McCache::store_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct StoreOp<'a> {
    /// Store flavor + predicate.
    pub mode: StoreMode,
    /// Key bytes.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
    /// Client flags.
    pub flags: u32,
    /// Expiry time.
    pub exptime: u32,
}

/// Outcome of `incr`/`decr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithStatus {
    /// New value.
    Ok(u64),
    /// `NOT_FOUND`.
    NotFound,
    /// `CLIENT_ERROR cannot increment or decrement non-numeric value`.
    NonNumeric,
}

/// One worker's private chunk cache: a row of free handles per slab
/// class, each row sized to the configured magazine capacity at start so
/// steady-state pops and pushes never touch the heap. Chunks held here
/// are invisible to the allocator and the rebalancer — `free_count` and
/// `page_free` were decremented when the refill popped them — and only
/// become shared again via a flush or a committed link.
#[derive(Debug, Default)]
struct Magazine {
    rows: Vec<Vec<ItemHandle>>,
}

/// Padded to a cache-line pair so adjacent workers' stat blocks, op
/// counters, and magazine state never false-share (128 bytes covers the
/// adjacent-line prefetcher on x86).
#[repr(align(128))]
struct WorkerSlot {
    lock: ProfiledMutex<()>,
    stats: ThreadStats,
    op_count: AtomicU64,
    magazine: Mutex<Magazine>,
    /// Lossy key-popularity sketch, fed by this worker's GETs and drained
    /// by the adaptive controller each epoch.
    sketch: HotSketch,
}

/// The adaptive controller's epoch baselines: counter values as of the
/// previous tick, the configuration it believes is installed, and the
/// hot-key tags it last armed. Locked only by the controller thread and
/// the deterministic test hook ([`McCache::adapt_tick`]).
struct AdaptState {
    tm: StatsSnapshot,
    sets: u64,
    refills: u64,
    flushes: u64,
    cur: tm::adapt::AdaptConfig,
    armed: Vec<u32>,
}

// Layout guard (see crates/tm/tests/layout_guard.rs for the STM twins):
// worker slots must start on — and occupy whole multiples of — the padded
// 128-byte boundary, or adjacent workers' stat counters false-share again.
const _: () = assert!(std::mem::align_of::<WorkerSlot>() == 128, "WorkerSlot must keep its 128-byte alignment");
const _: () = assert!(std::mem::size_of::<WorkerSlot>() % 128 == 0, "WorkerSlot must fill whole 128-byte units");

/// The cache. Create with [`McCache::start`]; share via the returned
/// [`Arc`]; maintenance threads stop when [`McCache::shutdown`] runs (also
/// called on drop of the handle returned by `start`).
pub struct McCache {
    cfg: McConfig,
    policy: Policy,
    rt: TmRuntime,
    core: CacheCore,
    profiler: Profiler,
    start_time: Instant,
    /// Unix seconds corresponding to `rel_time() == 0`, fixed at start so
    /// redo records carry wall-clock times that survive a restart.
    unix_base: u64,
    /// The redo-log writer; empty while recovery replays (replayed inserts
    /// must not re-log) and forever when durability is off.
    dur: OnceLock<Arc<DurLog>>,
    // Lock-branch locks, in the §3.1 order: item, cache, slabs, stats.
    cache_lock: ProfiledMutex<()>,
    slabs_lock: ProfiledMutex<()>,
    stats_lock: ProfiledMutex<()>,
    rebalance_mutex: ProfiledMutex<()>,
    // Condition synchronization, both forms.
    assoc_cv: Condvar,
    slab_cv: Condvar,
    assoc_sem: Semaphore,
    slab_sem: Semaphore,
    workers: Vec<WorkerSlot>,
    log_lines: AtomicU64,
    shutdown: AtomicBool,
    // Adaptive-runtime state (DESIGN §15). The live knobs the controller
    // writes and the hot paths read; each starts at its configured value
    // and never leaves the hot path's cache line cold (plain relaxed
    // atomics, no locks).
    /// Live per-worker magazine capacity; `cfg.magazine` is only the seed.
    mag_cap: AtomicUsize,
    /// Live LRU-bump cadence; `cfg.lru_bump_every` is only the seed.
    bump_every: AtomicU64,
    /// Hot-key privatization table; present iff `cfg.hot_slots > 0` on a
    /// transactional branch.
    hot: Option<Arc<HotSet>>,
    /// Controller epochs completed.
    adapt_epochs: AtomicU64,
    /// Magazine-capacity retunes applied.
    adapt_mag_resizes: AtomicU64,
    /// LRU-bump-cadence retunes applied.
    adapt_ro_tunes: AtomicU64,
    /// Controller epoch baselines (see [`AdaptState`]).
    adapt_state: Mutex<AdaptState>,
    // Robustness telemetry: panics caught at the two supervision
    // boundaries (per-request guards in `proto`, maintenance respawn).
    request_panics: AtomicU64,
    maintenance_panics: AtomicU64,
    // Test-only traps that make the next request / maintenance wakeup
    // panic deliberately (see the `trip_*` methods).
    request_panic_trap: AtomicBool,
    assoc_panic_trap: AtomicBool,
    slab_panic_trap: AtomicBool,
}

impl std::fmt::Debug for McCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McCache")
            .field("branch", &self.cfg.branch.to_string())
            .field("algorithm", &self.cfg.algorithm)
            .finish_non_exhaustive()
    }
}

/// Owns the maintenance threads; shuts the cache down on drop.
#[derive(Debug)]
pub struct McHandle {
    cache: Arc<McCache>,
    threads: Vec<JoinHandle<()>>,
}

impl McHandle {
    /// The shared cache.
    pub fn cache(&self) -> &Arc<McCache> {
        &self.cache
    }
}

impl std::ops::Deref for McHandle {
    type Target = McCache;
    fn deref(&self) -> &McCache {
        &self.cache
    }
}

impl Drop for McHandle {
    fn drop(&mut self) {
        self.cache.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Aggregated statistics for `stats`-style reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Global counters.
    pub global: GlobalSnapshot,
    /// Sum of per-thread counters.
    pub threads: ThreadSnapshot,
    /// Verbose log lines emitted.
    pub log_lines: u64,
    /// Request panics converted to error responses.
    pub request_panics: u64,
    /// Maintenance-thread panics recovered by respawn.
    pub maintenance_panics: u64,
    /// Adaptive-controller epochs completed (0 when the controller is off).
    pub adapt_epochs: u64,
    /// Algorithm/CM switches the TM runtime has performed.
    pub adapt_switches: u64,
    /// Magazine-capacity retunes the controller applied.
    pub adapt_mag_resizes: u64,
    /// LRU-bump-cadence retunes the controller applied.
    pub adapt_ro_tunes: u64,
    /// Live per-worker magazine capacity.
    pub magazine_cap: u64,
    /// Live LRU-bump cadence.
    pub lru_bump_every: u64,
    /// GETs served from the privatized hot-key set.
    pub hot_hits: u64,
    /// Hot-key installs (slots armed by retunes).
    pub hot_installs: u64,
    /// Wholesale hot-set invalidations (evictions, rebalances, flushes).
    pub hot_invalidations: u64,
    /// Currently armed hot-key slots.
    pub hot_armed: u64,
}

impl McCache {
    /// Builds the cache and spawns its maintenance threads.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero workers, or a
    /// contention manager that needs the serial lock on a NoLock branch).
    pub fn start(cfg: McConfig) -> McHandle {
        assert!(cfg.workers > 0, "need at least one worker slot");
        let policy = cfg.branch.policy();
        let cm = cfg.contention.unwrap_or(if policy.serial_lock {
            ContentionManager::GCC_DEFAULT
        } else {
            ContentionManager::None
        });
        let rt = TmRuntime::builder()
            .algorithm(cfg.algorithm)
            .contention_manager(cm)
            .serial_lock(if policy.serial_lock {
                SerialLockMode::ReaderWriter
            } else {
                SerialLockMode::None
            })
            .clock_shards(cfg.clock_shards)
            .build();
        let profiler = Profiler::new();
        let core = CacheCore::new(
            cfg.slab,
            cfg.hash_power,
            cfg.hash_power_max,
            cfg.item_lock_power,
            &profiler,
        );
        let magazines_on = cfg.magazine > 0 && policy.item_mode == ItemMode::Transactional;
        let workers = (0..cfg.workers)
            .map(|i| WorkerSlot {
                lock: ProfiledMutex::new(&format!("thread_stats[{i}]"), (), &profiler),
                stats: ThreadStats::default(),
                op_count: AtomicU64::new(0),
                magazine: Mutex::new(Magazine {
                    rows: if magazines_on {
                        (0..core.arena.class_count())
                            .map(|_| Vec::with_capacity(cfg.magazine))
                            .collect()
                    } else {
                        Vec::new()
                    },
                }),
                sketch: HotSketch::default(),
            })
            .collect();
        let hot = (cfg.hot_slots > 0 && policy.item_mode == ItemMode::Transactional)
            .then(|| Arc::new(HotSet::new(cfg.hot_slots)));
        let cache = Arc::new(McCache {
            policy,
            rt,
            core,
            cache_lock: ProfiledMutex::new("cache_lock", (), &profiler),
            slabs_lock: ProfiledMutex::new("slabs_lock", (), &profiler),
            stats_lock: ProfiledMutex::new("stats_lock", (), &profiler),
            rebalance_mutex: ProfiledMutex::new("slab_rebalance_lock", (), &profiler),
            assoc_cv: Condvar::new(),
            slab_cv: Condvar::new(),
            assoc_sem: Semaphore::new(),
            slab_sem: Semaphore::new(),
            workers,
            log_lines: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            mag_cap: AtomicUsize::new(cfg.magazine),
            bump_every: AtomicU64::new(cfg.lru_bump_every),
            hot,
            adapt_epochs: AtomicU64::new(0),
            adapt_mag_resizes: AtomicU64::new(0),
            adapt_ro_tunes: AtomicU64::new(0),
            adapt_state: Mutex::new(AdaptState {
                tm: StatsSnapshot::default(),
                sets: 0,
                refills: 0,
                flushes: 0,
                cur: tm::adapt::AdaptConfig { algorithm: cfg.algorithm, cm },
                armed: Vec::new(),
            }),
            request_panics: AtomicU64::new(0),
            maintenance_panics: AtomicU64::new(0),
            request_panic_trap: AtomicBool::new(false),
            assoc_panic_trap: AtomicBool::new(false),
            slab_panic_trap: AtomicBool::new(false),
            start_time: Instant::now(),
            unix_base: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
                .saturating_sub(2),
            dur: OnceLock::new(),
            profiler,
            cfg,
        });
        // Durability: replay whatever the redo log holds, then attach the
        // writer — strictly in that order, so replayed inserts are not
        // re-logged (idempotent recovery) and everything after this point
        // is. Runs before the maintenance threads and before any caller
        // can reach the wire front end (the TCP server binds only after
        // `start` returns).
        if cache.cfg.dur_path.is_some() {
            cache.recover_and_attach_log();
        }
        let mut threads = Vec::new();
        if cache.cfg.maintenance {
            threads.push(Self::supervised(&cache, McCache::assoc_maintenance_loop));
            threads.push(Self::supervised(&cache, McCache::slab_rebalance_loop));
        }
        if cache.cfg.adapt && cache.policy.item_mode == ItemMode::Transactional {
            threads.push(Self::supervised(&cache, McCache::adapt_loop));
        }
        McHandle { cache, threads }
    }

    /// Spawns a maintenance loop under a supervisor: a panic unwinding out
    /// of the loop is counted and the loop re-entered, so one bad wakeup
    /// (e.g. an assertion tripped mid-migration) degrades to a lost batch
    /// instead of silently killing hash expansion or slab rebalancing for
    /// the rest of the process's life.
    fn supervised(cache: &Arc<McCache>, body: fn(&McCache)) -> JoinHandle<()> {
        let c = cache.clone();
        std::thread::spawn(move || loop {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&c)));
            if r.is_ok() {
                // The loop only returns on shutdown.
                return;
            }
            c.maintenance_panics.fetch_add(1, Ordering::Relaxed);
            if c.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Respawn: re-enter the loop body after the panic.
        })
    }

    /// Stops the maintenance threads (idempotent) and seals the redo log
    /// so the next start recovers without the torn-tail heuristic.
    pub fn shutdown(&self) {
        if let Some(d) = self.dur.get() {
            d.seal();
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.assoc_sem.post();
        self.slab_sem.post();
        self.assoc_cv.notify_all();
        self.slab_cv.notify_all();
    }

    /// The active branch.
    pub fn branch(&self) -> Branch {
        self.cfg.branch
    }

    /// Number of registered worker slots — the valid range of the `w`
    /// index every operation takes. The TCP front end sizes its
    /// thread-per-core pool against this so each network worker owns a
    /// distinct slot.
    pub fn worker_slots(&self) -> usize {
        self.workers.len()
    }

    /// The TM runtime's statistics (Tables 1–4 raw material).
    pub fn tm_stats(&self) -> StatsSnapshot {
        self.rt.stats()
    }

    /// The mutrace-style lock contention report (§3.1 methodology).
    pub fn lock_report(&self) -> String {
        self.profiler.report_table()
    }

    /// The lock profiler itself.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Aggregated cache statistics.
    pub fn stats(&self) -> CacheStats {
        let mut threads = ThreadSnapshot::default();
        for w in &self.workers {
            threads = threads + w.stats.snapshot_direct();
        }
        let mut global = self.core.global.snapshot_direct();
        // The trimmed read path counts its commands in per-worker shards
        // (see `get_stats_privatized`) instead of touching the shared
        // `cmd_total` cell; fold the shards back in so `cmd_total` keeps
        // meaning "every command ever processed".
        global.cmd_total += threads.cmd_shard;
        let hot = self.hot.as_deref();
        CacheStats {
            global,
            threads,
            log_lines: self.log_lines.load(Ordering::Relaxed),
            request_panics: self.request_panics(),
            maintenance_panics: self.maintenance_panics(),
            adapt_epochs: self.adapt_epochs.load(Ordering::Relaxed),
            adapt_switches: self.rt.stats().config_switches,
            adapt_mag_resizes: self.adapt_mag_resizes.load(Ordering::Relaxed),
            adapt_ro_tunes: self.adapt_ro_tunes.load(Ordering::Relaxed),
            magazine_cap: self.mag_cap.load(Ordering::Relaxed) as u64,
            lru_bump_every: self.bump_every.load(Ordering::Relaxed),
            hot_hits: hot.map_or(0, |h| h.hits.load(Ordering::Relaxed)),
            hot_installs: hot.map_or(0, |h| h.installs.load(Ordering::Relaxed)),
            hot_invalidations: hot.map_or(0, |h| h.invalidations.load(Ordering::Relaxed)),
            hot_armed: hot.map_or(0, |h| h.armed() as u64),
        }
    }

    /// Cache-relative time in seconds (memcached's `current_time`), offset
    /// so that time 0/1 never collide with "immediately".
    pub fn rel_time(&self) -> u32 {
        self.start_time.elapsed().as_secs() as u32 + 2
    }

    /// Current Unix seconds, derived from the same monotonic clock as
    /// [`McCache::rel_time`] so the two never drift within a run.
    pub fn unix_time(&self) -> u64 {
        self.unix_base + self.rel_time() as u64
    }

    /// Converts a rel-time-space second to Unix seconds, preserving the
    /// "0 = never" sentinel.
    fn abs_unix(&self, rel: u32) -> u64 {
        if rel == 0 {
            0
        } else {
            self.unix_base + rel as u64
        }
    }

    // ------------------------------------------------------------------
    // Durability: redo-log hook + startup recovery (DESIGN §14)
    // ------------------------------------------------------------------

    /// Whether the redo log is attached (and not yet failed).
    pub fn dur_enabled(&self) -> bool {
        self.dur.get().is_some_and(|d| !d.is_failed())
    }

    /// Durability counters, `None` when the cache runs without a log.
    pub fn dur_stats(&self) -> Option<DurSnapshot> {
        self.dur.get().map(|d| d.stats().snapshot())
    }

    /// Registers `rec` for the redo log at this critical section's commit
    /// stamp. Inside a transaction the append rides the §3.5 onCommit
    /// hook — it runs after every runtime lock is released, stamped with
    /// [`tm::last_commit_stamp`]. Under a held lock (Lock/IP branches,
    /// recovery) the append happens immediately with a freshly minted
    /// stamp from the same time base, while the caller still holds the
    /// item lock — so same-key records land in the file in lock order.
    fn dur_record<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, rec: Record) {
        let Some(d) = self.dur.get() else { return };
        if ctx.in_transaction() {
            let d = Arc::clone(d);
            ctx.defer_or_run(move || d.append(tm::last_commit_stamp(), &rec));
        } else {
            d.append(self.rt.mint_commit_stamp(), &rec);
        }
    }

    /// Builds and registers the [`Record::Set`] for a freshly linked item.
    /// Must run inside the same critical section as the link, after the
    /// link assigned the CAS id.
    fn dur_store_record<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        h: ItemHandle,
        key: &[u8],
        value: &[u8],
        flags: u32,
    ) -> Result<(), Abort> {
        if self.dur.get().is_none() {
            return Ok(());
        }
        let it = self.core.arena.resolve(h);
        let cas = it.cas(ctx)?;
        let (exp, last) = it.times(ctx)?;
        self.dur_record(
            ctx,
            Record::Set {
                cas,
                flags,
                abs_exp: self.abs_unix(exp),
                stored_unix: self.abs_unix(last),
                key: key.to_vec(),
                value: value.to_vec(),
            },
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hot-key publication (DESIGN §15.4)
    // ------------------------------------------------------------------

    /// The hot set's current invalidation generation — capture BEFORE the
    /// critical section whose outcome will be published. 0 when the hot
    /// set is off (publishes are no-ops then anyway).
    fn hot_gen(&self) -> u64 {
        self.hot.as_deref().map_or(0, HotSet::current_gen)
    }

    /// Publishes a freshly linked item to the hot set from the linking
    /// transaction's onCommit hook, stamped with the commit stamp — after
    /// the store is globally visible, before the client's reply (which is
    /// what makes hot reads read-your-writes). Must run inside the same
    /// section as the link, after the CAS id was assigned; `gen` is the
    /// generation captured before the section.
    #[allow(clippy::too_many_arguments)]
    fn hot_record_store<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        h: ItemHandle,
        key: &[u8],
        hv: u32,
        value: &[u8],
        flags: u32,
        gen: u64,
    ) -> Result<(), Abort> {
        let Some(hot) = &self.hot else { return Ok(()) };
        if !hot.is_tagged(hv) {
            return Ok(());
        }
        let it = self.core.arena.resolve(h);
        let cas = it.cas(ctx)?;
        let (exp, _) = it.times(ctx)?;
        let hot = Arc::clone(hot);
        let key = key.to_vec();
        let value = value.to_vec();
        ctx.defer_or_run(move || {
            hot.publish(
                hv,
                &key,
                gen,
                tm::last_commit_stamp(),
                HotState::Present { value, flags, cas, exp },
            );
        });
        Ok(())
    }

    /// Publishes a commit-stamped [`HotState::Absent`] for a deleted key.
    fn hot_record_delete<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, key: &[u8], hv: u32, gen: u64) {
        let Some(hot) = &self.hot else { return };
        if !hot.is_tagged(hv) {
            return;
        }
        let hot = Arc::clone(hot);
        let key = key.to_vec();
        ctx.defer_or_run(move || {
            hot.publish(hv, &key, gen, tm::last_commit_stamp(), HotState::Absent);
        });
    }

    /// Publishes a commit-stamped [`HotState::Unknown`] for a key mutated
    /// without a re-renderable value (incr/decr, touch): never served, but
    /// it fences out repopulation from pre-mutation observations.
    fn hot_record_disturb<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, key: &[u8], hv: u32, gen: u64) {
        let Some(hot) = &self.hot else { return };
        if !hot.is_tagged(hv) {
            return;
        }
        let hot = Arc::clone(hot);
        let key = key.to_vec();
        ctx.defer_or_run(move || {
            hot.publish(hv, &key, gen, tm::last_commit_stamp(), HotState::Unknown);
        });
    }

    /// Startup recovery: scan the log directory, replay the surviving
    /// records into the (still-private) cache, optionally compact, then
    /// attach a fresh-epoch writer. Any I/O failure here degrades to a
    /// cold, cache-only start with a one-time warning — never a panic.
    fn recover_and_attach_log(&self) {
        let dir = self.cfg.dur_path.clone().expect("caller checked dur_path");
        let unix_now = self.unix_time();
        let mut recovered = 0u64;
        let mut compactions = 0u64;
        let mut torn = 0u64;
        let mut cas_floor = 0u64;
        match dur::recover(&dir) {
            Err(e) => {
                eprintln!("mcache: redo-log recovery failed ({e}); starting cold");
            }
            Ok(mut rec) => {
                torn = rec.torn_records_dropped;
                cas_floor = rec.cas_floor;
                // Expired-at-replay entries are skipped (and excluded from
                // any compacted rewrite).
                rec.entries
                    .retain(|e| e.abs_exp == 0 || e.abs_exp > unix_now);
                // CAS floor first: every replayed item must take an id
                // strictly above anything a pre-crash client saw.
                let mut ctx = Ctx::Direct;
                self.core
                    .set_cas_floor(&mut ctx, cas_floor)
                    .expect("direct");
                for e in &rec.entries {
                    if e.key.is_empty() || e.key.len() > KEY_MAX {
                        continue; // foreign garbage that still passed crc
                    }
                    let rel_exp = if e.abs_exp == 0 {
                        0
                    } else {
                        e.abs_exp.saturating_sub(self.unix_base) as u32
                    };
                    if self.store(0, StoreMode::Set, &e.key, &e.value, e.flags, rel_exp)
                        == StoreStatus::Stored
                    {
                        recovered += 1;
                    }
                }
                // Compaction: once the log outgrows a segment and most of
                // its bytes are dead, rewrite it as one sealed segment.
                let live: u64 = rec
                    .entries
                    .iter()
                    .map(|e| 64 + e.key.len() as u64 + e.value.len() as u64)
                    .sum();
                if rec.log_bytes >= self.cfg.dur_segment_bytes
                    && (live as f64) < self.cfg.dur_compact_ratio * rec.log_bytes as f64
                {
                    match dur::compact(&dir, &rec, unix_now) {
                        Ok(_) => compactions = 1,
                        Err(e) => {
                            eprintln!("mcache: redo-log compaction failed ({e}); keeping segments");
                        }
                    }
                }
            }
        }
        match DurLog::open(&dir, self.cfg.dur_fsync, self.cfg.dur_segment_bytes, cas_floor) {
            Ok(log) => {
                log.note_recovery(recovered, torn, compactions);
                let _ = self.dur.set(Arc::new(log));
            }
            Err(e) => {
                eprintln!(
                    "mcache: redo log unavailable ({e}); continuing in cache-only mode"
                );
            }
        }
    }

    /// Requests whose handler panicked and was converted to a
    /// `SERVER_ERROR` / binary internal-error response by the per-request
    /// guard in [`crate::proto`].
    pub fn request_panics(&self) -> u64 {
        self.request_panics.load(Ordering::Relaxed)
    }

    /// Panics caught by the maintenance-thread supervisor (each one means
    /// a loop was re-entered rather than left dead).
    pub fn maintenance_panics(&self) -> u64 {
        self.maintenance_panics.load(Ordering::Relaxed)
    }

    pub(crate) fn note_request_panic(&self) {
        self.request_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn take_request_panic_trap(&self) -> bool {
        self.request_panic_trap.swap(false, Ordering::SeqCst)
    }

    /// Makes the next protocol request panic inside its handler (tests the
    /// per-request guard).
    #[doc(hidden)]
    pub fn trip_request_panic(&self) {
        self.request_panic_trap.store(true, Ordering::SeqCst);
    }

    /// Makes the assoc maintenance thread panic at its next wakeup (tests
    /// the supervisor's respawn).
    #[doc(hidden)]
    pub fn trip_assoc_panic(&self) {
        self.assoc_panic_trap.store(true, Ordering::SeqCst);
    }

    /// Makes the slab rebalance thread panic at its next wakeup (tests the
    /// supervisor's respawn).
    #[doc(hidden)]
    pub fn trip_slab_panic(&self) {
        self.slab_panic_trap.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Section machinery
    // ------------------------------------------------------------------

    /// Runs one critical-section-turned-transaction. `entry` lists unsafe
    /// categories performed unconditionally at the top of the section
    /// (start-serial causes); `mid` lists those reachable later
    /// (in-flight-switch causes). Only meaningful on transactional
    /// branches.
    fn tx_section<'e, R>(
        &'e self,
        entry: &[Category],
        mid: &[Category],
        mut f: impl FnMut(&mut Ctx<'_, 'e>) -> Result<R, Abort>,
    ) -> R {
        match self.policy.section_kind(entry, mid) {
            SectionKind::Atomic => self.rt.atomic(|tx| f(&mut Ctx::Atomic(tx))),
            SectionKind::Relaxed => self
                .rt
                .relaxed(RelaxedPlan::new(), |tx| f(&mut Ctx::Relaxed(tx))),
            SectionKind::RelaxedSerial => self
                .rt
                .relaxed(RelaxedPlan::serial(), |tx| f(&mut Ctx::Relaxed(tx))),
        }
    }

    /// [`Self::tx_section`] for sections that expect to stay read-only:
    /// enters through the runtime's read-only fast lane (`atomic_ro` /
    /// `relaxed_ro`), so a GET that never writes commits without ever
    /// touching an orec or a log. A write mid-section (cold ITEM_FETCHED,
    /// refcounting without elision, LRU timestamp) promotes the attempt in
    /// flight — same semantics, just without the fast-lane discount.
    /// Sections whose policy forces serial mode take the ordinary serial
    /// path; the hint is meaningless there.
    fn tx_section_ro<'e, R>(
        &'e self,
        entry: &[Category],
        mid: &[Category],
        mut f: impl FnMut(&mut Ctx<'_, 'e>) -> Result<R, Abort>,
    ) -> R {
        match self.policy.section_kind(entry, mid) {
            SectionKind::Atomic => self.rt.atomic_ro(|tx| f(&mut Ctx::Atomic(tx))),
            SectionKind::Relaxed => self
                .rt
                .relaxed_ro(RelaxedPlan::new(), |tx| f(&mut Ctx::Relaxed(tx))),
            SectionKind::RelaxedSerial => self
                .rt
                .relaxed(RelaxedPlan::serial(), |tx| f(&mut Ctx::Relaxed(tx))),
        }
    }

    /// IP's item-lock acquire: a mini-transaction spinning on a boolean
    /// (Figure 1a's `tm_lock`).
    fn ip_item_lock(&self, stripe: usize) {
        let cell = self.core.item_locks.cell(stripe);
        loop {
            let got = self.rt.atomic(|tx| {
                if tx.read(cell)? {
                    Ok(false)
                } else {
                    tx.write(cell, true)?;
                    Ok(true)
                }
            });
            if got {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// IP's item-lock release mini-transaction (a single-location
    /// transaction expression, which GCC — and this runtime — does not
    /// optimize; §3.3 flags the cost).
    fn ip_item_unlock(&self, stripe: usize) {
        self.rt.expr_write(self.core.item_locks.cell(stripe), false);
    }

    /// Verbose logging inside a section: `fprintf(stderr, ...)` guarded by
    /// the verbose flag — unsafe pre-onCommit, a commit handler after.
    fn maybe_log<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, _what: &'static str) -> Result<(), Abort> {
        if !self.cfg.verbose {
            return Ok(());
        }
        let sink = &self.log_lines;
        if !ctx.in_transaction() {
            sink.fetch_add(1, Ordering::Relaxed);
        } else if self.policy.is_deferred(Category::LogIo) {
            ctx.defer_or_run(move || {
                sink.fetch_add(1, Ordering::Relaxed);
            });
        } else {
            ctx.unsafe_op(|| sink.fetch_add(1, Ordering::Relaxed))?;
        }
        Ok(())
    }

    /// Wakes a maintenance thread from inside a section: condvar signal in
    /// Baseline (Figure 2 left), `sem_post` after — unsafe pre-onCommit,
    /// then deferred to an onCommit handler.
    fn signal_maintenance<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        slab: bool,
    ) -> Result<(), Abort> {
        let g = &self.core.global;
        let c = ctx.fetch_add_word(g.maintenance_signals.word(), 1);
        c?;
        if !self.policy.semaphores {
            // Baseline: cond_signal while holding the lock.
            debug_assert!(!ctx.in_transaction());
            if slab {
                self.slab_cv.notify_one();
            } else {
                self.assoc_cv.notify_one();
            }
            return Ok(());
        }
        let sem = if slab { &self.slab_sem } else { &self.assoc_sem };
        if !ctx.in_transaction() {
            sem.post();
        } else if self.policy.is_deferred(Category::SemPost) {
            ctx.defer_or_run(move || sem.post());
        } else {
            ctx.unsafe_op(|| sem.post())?;
        }
        Ok(())
    }

    /// Per-op statistics: the per-thread block under its own lock, then
    /// the global `cmd_total` under `stats_lock` — the §3.1 contended
    /// lock.
    fn op_stats<'s>(
        &'s self,
        w: usize,
        f: impl Fn(&'s ThreadStats) -> (
            &'s tm::TCell<u64>,
            Option<&'s tm::TCell<u64>>,
        ),
    ) {
        let slot = &self.workers[w];
        let (a, b) = f(&slot.stats);
        let cells = std::iter::once(a).chain(b);
        if !self.policy.transactional {
            let _g = slot.lock.lock();
            let mut ctx = Ctx::Direct;
            for cell in cells {
                let v = ctx.get_word(cell.word()).expect("direct");
                ctx.put_word(cell.word(), v + 1).expect("direct");
            }
        } else {
            // The per-thread stats lock became a transaction (§3.1).
            self.tx_section(&[], &[], |ctx| {
                for cell in std::iter::once(a).chain(b) {
                    let v = ctx.get_word(cell.word())?;
                    ctx.put_word(cell.word(), v + 1)?;
                }
                Ok(())
            });
        }
    }

    fn bump_cmd_total(&self) {
        let g = &self.core.global;
        if !self.policy.transactional {
            let _s = self.stats_lock.lock();
            let mut ctx = Ctx::Direct;
            let v = ctx.get_word(g.cmd_total.word()).expect("direct");
            ctx.put_word(g.cmd_total.word(), v + 1).expect("direct");
        } else {
            self.tx_section(&[], &[], |ctx| {
                let v = ctx.get_word(g.cmd_total.word())?;
                ctx.put_word(g.cmd_total.word(), v + 1)
            });
        }
    }

    /// IT enlarges critical sections (the Figure-3 observation: "using TM
    /// will encourage programmers to enlarge critical sections"): the
    /// per-thread and global stats updates fold into the main item
    /// transaction instead of running as their own mini-transactions.
    fn stats_inline<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        cell: &'e tm::TCell<u64>,
        extra: Option<&'e tm::TCell<u64>>,
    ) -> Result<(), Abort> {
        for c in std::iter::once(cell).chain(extra) {
            let v = ctx.get_word(c.word())?;
            ctx.put_word(c.word(), v + 1)?;
        }
        let g = &self.core.global;
        let v = ctx.get_word(g.cmd_total.word())?;
        ctx.put_word(g.cmd_total.word(), v + 1)
    }

    /// GET-path stats by privatization: the per-thread block is only ever
    /// written by its owning worker, so — by the same argument IP makes for
    /// privatized item data (§3.3) — the trimmed read path updates it
    /// directly, outside the transaction, after the section ends. The
    /// global command counter becomes a per-worker shard (`cmd_shard`)
    /// folded back together at snapshot time, which keeps both the §3.1
    /// `stats_lock` hot spot and any shared stats word out of the
    /// read-only fast lane entirely.
    fn get_stats_privatized(&self, w: usize, hits: u64, misses: u64) {
        let slot = &self.workers[w];
        let _g = slot.lock.lock();
        let mut ctx = Ctx::Direct;
        for (cell, n) in [
            (&slot.stats.get_cmds, hits + misses),
            (&slot.stats.get_hits, hits),
            (&slot.stats.get_misses, misses),
            (&slot.stats.cmd_shard, hits + misses),
        ] {
            if n != 0 {
                let v = ctx.get_word(cell.word()).expect("direct");
                ctx.put_word(cell.word(), v + n).expect("direct");
            }
        }
    }

    // ------------------------------------------------------------------
    // Client operations
    // ------------------------------------------------------------------

    /// `get key`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or the key exceeds
    /// [`KEY_MAX`].
    pub fn get(&self, w: usize, key: &[u8]) -> Option<GetValue> {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let now = self.rel_time();
        let stripe = self.core.item_locks.stripe(hv);
        let ops = self.workers[w].op_count.fetch_add(1, Ordering::Relaxed);
        let bump_cadence = self.bump_every.load(Ordering::Relaxed);
        let bump_hint = bump_cadence != 0 && ops.is_multiple_of(bump_cadence);
        let core = &self.core;
        let policy = self.policy;

        let hit: Option<GetHit> = match self.policy.item_mode {
            ItemMode::Lock => {
                let _g = core.item_locks.mutex(stripe).lock();
                let mut ctx = Ctx::Direct;
                let hit = core
                    .item_get(&mut ctx, &policy, key, hv, now, bump_hint, false)
                    .expect("direct sections never abort");
                if let Some(h) = &hit {
                    if h.needs_bump {
                        // item -> cache lock order.
                        let _c = self.cache_lock.lock();
                        core.update_item(&mut ctx, &policy, h.handle, now)
                            .expect("direct");
                    }
                }
                self.maybe_log(&mut ctx, "get").expect("direct");
                hit
            }
            ItemMode::Privatize => {
                self.ip_item_lock(stripe);
                let mut ctx = Ctx::Direct;
                let hit = core
                    .item_get(&mut ctx, &policy, key, hv, now, bump_hint, false)
                    .expect("privatized sections never abort");
                self.maybe_log(&mut ctx, "get").expect("direct");
                if let Some(h) = &hit {
                    if h.needs_bump {
                        self.update_section(key, hv, h.handle, now);
                    }
                }
                self.ip_item_unlock(stripe);
                hit
            }
            ItemMode::Transactional => {
                // Hot-key privatization (DESIGN §15.4): feed the popularity
                // sketch, then try the privatized copy. Every
                // HOT_REFRESH_EVERY-th access falls through on purpose so
                // the real item still gets LRU bumps — a hot key served
                // purely from the hot set would otherwise age to the LRU
                // tail and be evicted under memory pressure.
                let hot = self.hot.as_deref();
                if hot.is_some() {
                    self.workers[w].sketch.note(hv);
                }
                let hot = hot.filter(|h| h.is_tagged(hv));
                if let Some(hs) = hot {
                    if !ops.is_multiple_of(HOT_REFRESH_EVERY) {
                        match hs.lookup(hv, key, now) {
                            HotLookup::Hit(v) => {
                                self.get_stats_privatized(w, 1, 0);
                                return Some(v);
                            }
                            HotLookup::Absent => {
                                self.get_stats_privatized(w, 0, 1);
                                return None;
                            }
                            HotLookup::Stale => {}
                        }
                    }
                }
                // Repopulation metadata, captured BEFORE the transaction:
                // any writer committing after this observation stamp mints
                // a strictly larger one, and any eviction committing after
                // this generation bumps it — either way the publish below
                // can never mask a newer state.
                let hot_obs = hot.map(|hs| (hs.current_gen(), self.rt.observation_stamp()));
                // The trimmed GET of the read-path overdrive: the
                // transaction carries only what the paper's IP shape needs
                // atomically — hash walk, key memcmp, refcount bump — and
                // enters through the read-only fast lane. Stats moved out
                // (see `get_stats_privatized`); with refcount elision a
                // warm hit therefore never writes and commits fast-lane.
                let elide = self.cfg.refcount_elision;
                let hit = self.tx_section_ro(
                    &[Category::VolatileFlag],
                    &[Category::Libc, Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
                    |ctx| {
                        let h = core.item_get(ctx, &policy, key, hv, now, bump_hint, elide)?;
                        self.maybe_log(ctx, "get")?;
                        Ok(h)
                    },
                );
                if let (Some(hs), Some((gen, obs))) = (hot, hot_obs) {
                    let state = match &hit {
                        Some(h) => HotState::Present {
                            value: h.value.clone(),
                            flags: h.flags,
                            cas: h.cas,
                            exp: h.exp,
                        },
                        None => HotState::Absent,
                    };
                    hs.publish(hv, key, gen, obs, state);
                }
                if let Some(h) = &hit {
                    if h.needs_bump {
                        self.update_section(key, hv, h.handle, now);
                    }
                }
                self.get_stats_privatized(w, hit.is_some() as u64, hit.is_none() as u64);
                hit
            }
        };

        if self.policy.item_mode != ItemMode::Transactional {
            self.op_stats(w, |t| {
                (
                    &t.get_cmds,
                    Some(if hit.is_some() { &t.get_hits } else { &t.get_misses }),
                )
            });
            self.bump_cmd_total();
        }
        hit.map(|h| GetValue {
            data: h.value,
            flags: h.flags,
            cas: h.cas,
        })
    }

    /// Multiget: `get k1 k2 ... kn` as ONE critical section. On the
    /// transactional branches the whole batch runs as a single read-only
    /// fast-lane transaction — one begin, one snapshot to extend, one
    /// commit fence for n lookups — which is where batching pays: the
    /// per-transaction overhead the paper measures on the GET path is
    /// amortized across the batch. Lock branches fall back to per-key
    /// [`Self::get`]: their striped item locks cannot be held jointly
    /// without ordering, and memcached's real multiget re-acquires per key
    /// anyway.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or any key exceeds
    /// [`KEY_MAX`].
    pub fn get_multi(&self, w: usize, keys: &[&[u8]]) -> Vec<Option<GetValue>> {
        if self.policy.item_mode != ItemMode::Transactional || keys.len() < 2 {
            return keys.iter().map(|k| self.get(w, k)).collect();
        }
        for key in keys {
            assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        }
        let now = self.rel_time();
        let core = &self.core;
        let policy = self.policy;
        let elide = self.cfg.refcount_elision;
        // Hash + LRU-bump decisions are per-key and side-effecting
        // (op_count advances), so take them once, outside the retry loop.
        let bump_cadence = self.bump_every.load(Ordering::Relaxed);
        let meta: Vec<(u32, bool)> = keys
            .iter()
            .map(|key| {
                let hv = jenkins_hash(key, 0);
                let ops = self.workers[w].op_count.fetch_add(1, Ordering::Relaxed);
                let bump = bump_cadence != 0 && ops.is_multiple_of(bump_cadence);
                (hv, bump)
            })
            .collect();
        let hits: Vec<Option<GetHit>> = self.tx_section_ro(
            &[Category::VolatileFlag],
            &[Category::Libc, Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
            |ctx| {
                let mut out = Vec::with_capacity(keys.len());
                for (key, &(hv, bump)) in keys.iter().zip(&meta) {
                    out.push(core.item_get(ctx, &policy, key, hv, now, bump, elide)?);
                }
                self.maybe_log(ctx, "get_multi")?;
                Ok(out)
            },
        );
        for (key, (hit, &(hv, _))) in keys.iter().zip(hits.iter().zip(&meta)) {
            if let Some(h) = hit {
                if h.needs_bump {
                    self.update_section(key, hv, h.handle, now);
                }
            }
        }
        let n_hits = hits.iter().flatten().count() as u64;
        self.get_stats_privatized(w, n_hits, keys.len() as u64 - n_hits);
        hits.into_iter()
            .map(|o| {
                o.map(|h| GetValue {
                    data: h.value,
                    flags: h.flags,
                    cas: h.cas,
                })
            })
            .collect()
    }

    /// The `item_update` critical section (cache-lock category): re-finds
    /// the item by key — it may have been evicted since the lookup — and
    /// bumps its LRU position. The section starts with safe pointer work;
    /// the re-find's `memcmp` is a mid-transaction libc call until Lib, so
    /// this is the in-flight-switch site of Tables 1–2.
    fn update_section(&self, key: &[u8], hv: u32, h: ItemHandle, now: u32) {
        let core = &self.core;
        let policy = self.policy;
        self.tx_section(
            &[],
            &[Category::Libc, Category::AssertAbort],
            |ctx| {
                if let Some(cur) = core.assoc.find(ctx, &policy, &core.arena, key, hv)? {
                    if cur == h {
                        core.update_item(ctx, &policy, h, now)?;
                    }
                }
                Ok(())
            },
        );
    }

    /// `set key`.
    pub fn set(&self, w: usize, key: &[u8], value: &[u8], flags: u32, exptime: u32) -> StoreStatus {
        self.store(w, StoreMode::Set, key, value, flags, exptime)
    }

    /// `add key` (store only if absent).
    pub fn add(&self, w: usize, key: &[u8], value: &[u8], flags: u32, exptime: u32) -> StoreStatus {
        self.store(w, StoreMode::Add, key, value, flags, exptime)
    }

    /// `replace key` (store only if present).
    pub fn replace(
        &self,
        w: usize,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> StoreStatus {
        self.store(w, StoreMode::Replace, key, value, flags, exptime)
    }

    /// `cas key` (store only if unchanged since `cas_id`).
    pub fn cas(
        &self,
        w: usize,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        cas_id: u64,
    ) -> StoreStatus {
        self.store(w, StoreMode::Cas(cas_id), key, value, flags, exptime)
    }

    /// `append key`: concatenate after the existing value (get + CAS loop,
    /// as a client library would retry).
    pub fn append(&self, w: usize, key: &[u8], tail: &[u8]) -> StoreStatus {
        self.concat(w, key, tail, true)
    }

    /// `prepend key`: concatenate before the existing value.
    pub fn prepend(&self, w: usize, key: &[u8], head: &[u8]) -> StoreStatus {
        self.concat(w, key, head, false)
    }

    fn concat(&self, w: usize, key: &[u8], extra: &[u8], after: bool) -> StoreStatus {
        for _ in 0..16 {
            let Some(old) = self.get(w, key) else {
                return StoreStatus::NotStored;
            };
            let mut data = Vec::with_capacity(old.data.len() + extra.len());
            if after {
                data.extend_from_slice(&old.data);
                data.extend_from_slice(extra);
            } else {
                data.extend_from_slice(extra);
                data.extend_from_slice(&old.data);
            }
            match self.store(w, StoreMode::Cas(old.cas), key, &data, old.flags, 0) {
                StoreStatus::Exists => continue, // raced; retry
                s => return s,
            }
        }
        StoreStatus::NotStored
    }

    #[allow(clippy::too_many_arguments)]
    fn store(
        &self,
        w: usize,
        mode: StoreMode,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> StoreStatus {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let now = self.rel_time();
        let stripe = self.core.item_locks.stripe(hv);
        let core = &self.core;
        let policy = self.policy;
        let nbytes = value.len() as u32;

        let status = match self.policy.item_mode {
            ItemMode::Lock => {
                let _g = core.item_locks.mutex(stripe).lock();
                let mut ctx = Ctx::Direct;
                // §3.1: the cache_lock section whose first action takes
                // slabs_lock — the lock-order fix merged them; here the
                // lock branches take them nested in the fixed order.
                let alloc = {
                    let _c = self.cache_lock.lock();
                    let _s = self.slabs_lock.lock();
                    core.alloc_item(&mut ctx, &policy, key, flags, exptime, nbytes, now, stripe)
                        .expect("direct")
                };
                match alloc {
                    Err(AllocError::TooLarge) => StoreStatus::TooLarge,
                    Err(AllocError::OutOfMemory) => StoreStatus::OutOfMemory,
                    Ok(a) => {
                        let it = core.arena.resolve(a.handle);
                        let sizes = it.sizes(&mut ctx).expect("direct");
                        it.write_value(&mut ctx, &policy, sizes, value).expect("direct");
                        let st = {
                            let _c = self.cache_lock.lock();
                            self.link_new(&mut ctx, mode, key, hv, a.handle, a.evicted > 0)
                        };
                        if st == StoreStatus::Stored {
                            self.dur_store_record(&mut ctx, a.handle, key, value, flags)
                                .expect("direct");
                        }
                        core.item_release(&mut ctx, &policy, a.handle).expect("direct");
                        st
                    }
                }
            }
            ItemMode::Privatize => {
                self.ip_item_lock(stripe);
                let alloc = self.alloc_section(key, flags, exptime, nbytes, now, stripe);
                let st = match alloc {
                    Err(AllocError::TooLarge) => StoreStatus::TooLarge,
                    Err(AllocError::OutOfMemory) => StoreStatus::OutOfMemory,
                    Ok(a) => {
                        // Privatized: the new item's bytes are written
                        // directly while the item lock is held.
                        let mut ctx = Ctx::Direct;
                        let it = core.arena.resolve(a.handle);
                        let sizes = it.sizes(&mut ctx).expect("direct");
                        it.write_value(&mut ctx, &policy, sizes, value).expect("direct");
                        let (st, _) = self.tx_section(
                            &[Category::VolatileFlag],
                            &[
                                Category::Libc,
                                Category::SemPost,
                                Category::LogIo,
                                Category::AssertAbort,
                            ],
                            |ctx| {
                                let expanding =
                                    core.assoc.is_expanding(ctx, &policy)?;
                                let _ = expanding;
                                let (st, signal) = self.link_new_tx(
                                    ctx,
                                    mode,
                                    key,
                                    hv,
                                    a.handle,
                                    a.evicted > 0,
                                    false,
                                    None,
                                )?;
                                if st == StoreStatus::Stored {
                                    self.dur_store_record(ctx, a.handle, key, value, flags)?;
                                }
                                Ok((st, signal))
                            },
                        );
                        let mut ctx = Ctx::Direct;
                        core.item_release(&mut ctx, &policy, a.handle).expect("direct");
                        st
                    }
                };
                self.ip_item_unlock(stripe);
                st
            }
            ItemMode::Transactional if self.magazines_on() => {
                self.store_magazine(w, mode, key, value, flags, exptime, hv, now)
            }
            ItemMode::Transactional => {
                let alloc = self.alloc_section(key, flags, exptime, nbytes, now, usize::MAX);
                match alloc {
                    Err(AllocError::TooLarge) => StoreStatus::TooLarge,
                    Err(AllocError::OutOfMemory) => StoreStatus::OutOfMemory,
                    Ok(a) => {
                        // Captured after the (possibly evicting) alloc
                        // section committed, before the link section.
                        let hot_gen = self.hot_gen();
                        // The store transaction *begins* with the value
                        // memcpy — libc on every path, so this section
                        // starts serial until Lib (IT-Max's persistent
                        // "Start Serial" column).
                        self.tx_section(
                            &[Category::Libc],
                            &[Category::AssertAbort],
                            |ctx| {
                                let it = core.arena.resolve(a.handle);
                                let sizes = it.sizes(ctx)?;
                                it.write_value(ctx, &policy, sizes, value)
                            },
                        );
                        let (st, signal) = self.tx_section(
                            &[Category::VolatileFlag],
                            &[Category::Libc, Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
                            |ctx| {
                                let expanding =
                                    core.assoc.is_expanding(ctx, &policy)?;
                                let _ = expanding;
                                let (st, signal) = self.link_new_tx(
                                    ctx,
                                    mode,
                                    key,
                                    hv,
                                    a.handle,
                                    a.evicted > 0,
                                    true,
                                    None,
                                )?;
                                if st == StoreStatus::Stored {
                                    self.dur_store_record(ctx, a.handle, key, value, flags)?;
                                    self.hot_record_store(
                                        ctx, a.handle, key, hv, value, flags, hot_gen,
                                    )?;
                                }
                                core.item_release(ctx, &policy, a.handle)?;
                                let tstats = &self.workers[w].stats;
                                self.stats_inline(ctx, &tstats.set_cmds, None)?;
                                Ok((st, signal))
                            },
                        );
                        if signal {
                            // IT hoists the maintenance wakeup out of the
                            // (already large) store transaction into its
                            // own section, whose entry *is* the sem_post.
                            let evicted = a.evicted > 0;
                            self.tx_section(&[Category::SemPost], &[], |ctx| {
                                self.signal_maintenance(ctx, false)?;
                                if evicted {
                                    self.signal_maintenance(ctx, true)?;
                                }
                                Ok(())
                            });
                        }
                        st
                    }
                }
            }
        };

        if status == StoreStatus::OutOfMemory {
            // The allocation raised the rebalance signal; deliver the wakeup
            // (a sem_post site like any other).
            if !self.policy.transactional {
                let mut ctx = Ctx::Direct;
                self.signal_maintenance(&mut ctx, true).expect("direct");
            } else {
                self.tx_section(&[Category::SemPost], &[], |ctx| {
                    self.signal_maintenance(ctx, true)
                });
            }
        }
        if self.policy.item_mode != ItemMode::Transactional
            || matches!(status, StoreStatus::TooLarge | StoreStatus::OutOfMemory)
        {
            self.op_stats(w, |t| (&t.set_cmds, None));
            self.bump_cmd_total();
        }
        status
    }

    /// Batched stores: a run of pipelined mutations (quiet binary SETQ
    /// bursts, multi-command ASCII buffers) as ONE critical section. On the
    /// transactional branches the whole run commits as a single transaction
    /// — one begin, one commit fence for n stores — amortizing the
    /// per-transaction overhead exactly like [`Self::get_multi`] does on
    /// the read path, with allocation hoisted out front (a magazine pop per
    /// op when magazines are on, one slab transaction per op otherwise).
    /// Lock and IP branches, and trivial runs, fall back to per-op
    /// [`Self::store`].
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or any key exceeds
    /// [`KEY_MAX`].
    pub fn store_batch(&self, w: usize, ops: &[StoreOp<'_>]) -> Vec<StoreStatus> {
        if self.policy.item_mode != ItemMode::Transactional || ops.len() < 2 {
            return ops
                .iter()
                .map(|op| self.store(w, op.mode, op.key, op.value, op.flags, op.exptime))
                .collect();
        }
        for op in ops {
            assert!(op.key.len() <= KEY_MAX && !op.key.is_empty(), "bad key length");
        }
        let core = &self.core;
        let policy = self.policy;
        let now = self.rel_time();
        let mags = self.magazines_on();
        // Per-op prep (hash, sizing, one private chunk each) runs once; the
        // link transaction below may retry, so it must not re-allocate.
        enum Prep {
            Fail(StoreStatus),
            Ready {
                hv: u32,
                sizes: crate::item::ItemSizes,
                h: ItemHandle,
                evicted: bool,
            },
        }
        let preps: Vec<Prep> = ops
            .iter()
            .map(|op| {
                let hv = jenkins_hash(op.key, 0);
                let Some((sizes, class)) = core.size_item(op.key, op.flags, op.value.len() as u32)
                else {
                    return Prep::Fail(StoreStatus::TooLarge);
                };
                if mags {
                    match self.magazine_take(w, class) {
                        Some(h) => Prep::Ready { hv, sizes, h, evicted: false },
                        None => Prep::Fail(StoreStatus::OutOfMemory),
                    }
                } else {
                    match self.alloc_section(
                        op.key,
                        op.flags,
                        op.exptime,
                        op.value.len() as u32,
                        now,
                        usize::MAX,
                    ) {
                        Ok(a) => Prep::Ready { hv, sizes, h: a.handle, evicted: a.evicted > 0 },
                        Err(AllocError::TooLarge) => Prep::Fail(StoreStatus::TooLarge),
                        Err(AllocError::OutOfMemory) => Prep::Fail(StoreStatus::OutOfMemory),
                    }
                }
            })
            .collect();
        let hot_gen = self.hot_gen();
        let tstats = &self.workers[w].stats;
        let mut statuses: Vec<StoreStatus> = Vec::with_capacity(ops.len());
        let mut reclaims: Vec<ItemHandle> = Vec::new();
        let mut any_signal = false;
        self.tx_section(
            &[Category::VolatileFlag, Category::Libc],
            &[Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
            |ctx| {
                // Attempt-local accumulators: an abort rolls them back.
                statuses.clear();
                reclaims.clear();
                any_signal = false;
                let expanding = core.assoc.is_expanding(ctx, &policy)?;
                let _ = expanding;
                for (op, prep) in ops.iter().zip(&preps) {
                    let &Prep::Ready { hv, sizes, h, .. } = prep else {
                        let Prep::Fail(st) = prep else { unreachable!() };
                        statuses.push(*st);
                        continue;
                    };
                    if mags {
                        // Magazine chunks arrive raw; alloc_section chunks
                        // were initialized inside their slab transaction.
                        core.init_item(ctx, &policy, h, op.key, op.flags, op.exptime, sizes, now)?;
                    }
                    let it = core.arena.resolve(h);
                    it.write_value(ctx, &policy, sizes, op.value)?;
                    let mut reclaimed = None;
                    let (st, signal) = self.link_new_tx(
                        ctx,
                        op.mode,
                        op.key,
                        hv,
                        h,
                        false,
                        true,
                        if mags { Some(&mut reclaimed) } else { None },
                    )?;
                    if st == StoreStatus::Stored {
                        self.dur_store_record(ctx, h, op.key, op.value, op.flags)?;
                        self.hot_record_store(ctx, h, op.key, hv, op.value, op.flags, hot_gen)?;
                    }
                    if st == StoreStatus::Stored || !mags {
                        // Magazine chunks that failed their predicate stay
                        // private and go back to the magazine post-commit.
                        core.item_release(ctx, &policy, h)?;
                    }
                    if let Some(old) = reclaimed {
                        reclaims.push(old);
                    }
                    any_signal |= signal;
                    self.stats_inline(ctx, &tstats.set_cmds, None)?;
                    statuses.push(st);
                }
                Ok(())
            },
        );
        for (prep, st) in preps.iter().zip(&statuses) {
            if let Prep::Ready { h, .. } = prep {
                if mags && *st != StoreStatus::Stored {
                    self.magazine_put(w, *h);
                }
            }
        }
        for old in reclaims.drain(..) {
            self.magazine_put(w, old);
        }
        if any_signal {
            self.tx_section(&[Category::SemPost], &[], |ctx| {
                self.signal_maintenance(ctx, false)
            });
        }
        let evicted = preps
            .iter()
            .any(|p| matches!(p, Prep::Ready { evicted: true, .. }));
        if evicted || statuses.contains(&StoreStatus::OutOfMemory) {
            self.tx_section(&[Category::SemPost], &[], |ctx| {
                self.signal_maintenance(ctx, true)
            });
        }
        for st in &statuses {
            if matches!(st, StoreStatus::TooLarge | StoreStatus::OutOfMemory) {
                self.op_stats(w, |t| (&t.set_cmds, None));
                self.bump_cmd_total();
            }
        }
        statuses
    }

    /// The merged cache+slabs allocation section for the transactional
    /// branches (§3.1's lock-order fix). Entry reads the `volatile` slab
    /// rebalance signal; eviction reads victim refcounts and the suffix
    /// `snprintf` is libc — the in-flight causes pre-Max/pre-Lib.
    fn alloc_section(
        &self,
        key: &[u8],
        flags: u32,
        exptime: u32,
        nbytes: u32,
        now: u32,
        held_stripe: usize,
    ) -> Result<crate::core::Allocation, AllocError> {
        let core = &self.core;
        let policy = self.policy;
        self.tx_section(
            &[Category::VolatileFlag],
            &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
            |ctx| {
                let sig = ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                let _ = sig;
                let r =
                    core.alloc_item(ctx, &policy, key, flags, exptime, nbytes, now, held_stripe)?;
                if let Ok(a) = &r {
                    if a.evicted > 0 {
                        // Eviction bypasses per-key hot publication:
                        // invalidate the hot set wholesale at this
                        // section's commit.
                        if let Some(hot) = &self.hot {
                            let hot = Arc::clone(hot);
                            ctx.defer_or_run(move || hot.bump_gen());
                        }
                    }
                }
                Ok(r)
            },
        )
    }

    // ------------------------------------------------------------------
    // Per-worker slab magazines (the mutation fast lane's allocator)
    // ------------------------------------------------------------------

    /// Whether per-worker slab magazines are active: an IT branch with a
    /// nonzero [`McConfig::magazine`].
    pub fn magazines_on(&self) -> bool {
        self.cfg.magazine > 0 && self.policy.item_mode == ItemMode::Transactional
    }

    /// Pops a chunk of `class` from worker `w`'s magazine, refilling from
    /// the arena when the row is empty. `None` means even eviction and a
    /// global magazine flush could not produce a chunk — genuine memory
    /// exhaustion (the rebalance signal has been raised by then).
    fn magazine_take(&self, w: usize, class: u8) -> Option<ItemHandle> {
        if let Some(h) = self.workers[w].magazine.lock().unwrap().rows[class as usize].pop() {
            return Some(h);
        }
        self.magazine_refill(w, class)
    }

    /// Restocks worker `w`'s magazine for `class` with ONE short dedicated
    /// transaction: a batched freelist pop that also absorbs any eviction
    /// write-backs, so their cost amortizes over the whole row instead of
    /// landing on individual SETs. When the pool is truly dry the chunks
    /// may be parked in other workers' magazines — invisible to allocator
    /// and rebalancer alike — so before reporting out-of-memory every
    /// magazine is flushed back and the refill retried once.
    fn magazine_refill(&self, w: usize, class: u8) -> Option<ItemHandle> {
        let core = &self.core;
        let policy = self.policy;
        let cap = self.mag_cap.load(Ordering::Relaxed).max(1);
        let mut scratch: Vec<ItemHandle> = Vec::with_capacity(cap);
        let mut flushed = false;
        loop {
            let evictions = self.tx_section(
                &[Category::VolatileFlag],
                &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
                |ctx| {
                    scratch.clear(); // attempt-local: aborted pops roll back
                    let sig = ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                    let _ = sig;
                    let (got, evicted) =
                        core.refill_batch(ctx, &policy, class, cap, &mut scratch)?;
                    if evicted > 0 {
                        if let Some(hot) = &self.hot {
                            let hot = Arc::clone(hot);
                            ctx.defer_or_run(move || hot.bump_gen());
                        }
                    }
                    if got > 0 {
                        core.global.bump(ctx, &core.global.magazine_refills)?;
                    }
                    if got < cap {
                        // Starving (or evicting): point the rebalancer at
                        // this class, exactly like the plain alloc path.
                        ctx.put_word(core.arena.needy_class.word(), class as u64)?;
                        ctx.volatile_write(&policy, core.arena.rebalance_signal.word(), 1)?;
                    }
                    Ok(evicted)
                },
            );
            if evictions > 0 {
                // Deliver the wakeup outside the refill transaction, like
                // the IT store hoists its sem_post.
                self.tx_section(&[Category::SemPost], &[], |ctx| {
                    self.signal_maintenance(ctx, true)
                });
            }
            if let Some(h) = scratch.pop() {
                if !scratch.is_empty() {
                    let mut mag = self.workers[w].magazine.lock().unwrap();
                    mag.rows[class as usize].append(&mut scratch);
                }
                return Some(h);
            }
            if flushed || !self.flush_magazines() {
                return None;
            }
            flushed = true;
        }
    }

    /// Returns a thread-private chunk to worker `w`'s magazine. A full row
    /// first spills half of itself back to the arena (one flush
    /// transaction), so an overwrite-heavy burst cannot hoard chunks
    /// unboundedly; in the steady SET state (one pop, at most one push per
    /// op) the row never overflows and the spill path never runs.
    fn magazine_put(&self, w: usize, h: ItemHandle) {
        let core = &self.core;
        let cap = self.mag_cap.load(Ordering::Relaxed).max(1);
        let mut mag = self.workers[w].magazine.lock().unwrap();
        let row = &mut mag.rows[h.class as usize];
        if row.len() >= cap {
            let keep = cap / 2;
            self.tx_section(&[], &[Category::AssertAbort], |ctx| {
                core.arena.free_batch(ctx, &row[keep..])?;
                core.global.bump(ctx, &core.global.magazine_flushes)
            });
            row.truncate(keep);
        }
        row.push(h);
    }

    /// Flushes every worker's magazine back to the global free lists, one
    /// transaction per non-empty class row (each counted in
    /// `magazine_flushes`). Runs under allocation pressure and from
    /// `flush_all`; locks one worker's magazine at a time. Returns whether
    /// any chunk moved.
    pub fn flush_magazines(&self) -> bool {
        let core = &self.core;
        let mut any = false;
        for slot in &self.workers {
            let mut mag = slot.magazine.lock().unwrap();
            for row in mag.rows.iter_mut() {
                if row.is_empty() {
                    continue;
                }
                self.tx_section(&[], &[Category::AssertAbort], |ctx| {
                    core.arena.free_batch(ctx, row)?;
                    core.global.bump(ctx, &core.global.magazine_flushes)
                });
                row.clear();
                any = true;
            }
        }
        any
    }

    /// The magazine SET — the write path's mutation fast lane. Allocation
    /// becomes a private pop from the worker's chunk cache (no transaction,
    /// no shared free list), and header, key, suffix, value, link, and
    /// stats all commit in ONE transaction instead of the three (alloc +
    /// value + link) the plain IT store pays. Every shared-memory write
    /// stays instrumented: a magazine chunk's privacy is an *accounting*
    /// fact, not a license for direct writes — scribbling a
    /// previously-linked chunk uninstrumented would let a stale invisible
    /// reader (whose read-only commit skips final validation) return
    /// post-snapshot bytes undetected. A dead overwritten item is parked in
    /// limbo by `link_new_tx` and merged into the magazine after commit, so
    /// overwrite-heavy workloads recycle chunks entirely within the worker.
    #[allow(clippy::too_many_arguments)]
    fn store_magazine(
        &self,
        w: usize,
        mode: StoreMode,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        hv: u32,
        now: u32,
    ) -> StoreStatus {
        let core = &self.core;
        let policy = self.policy;
        let Some((sizes, class)) = core.size_item(key, flags, value.len() as u32) else {
            return StoreStatus::TooLarge;
        };
        let Some(handle) = self.magazine_take(w, class) else {
            // The refill raised the rebalance signal; store()'s tail
            // delivers the wakeup and counts the failed op.
            return StoreStatus::OutOfMemory;
        };
        let hot_gen = self.hot_gen();
        let tstats = &self.workers[w].stats;
        let mut reclaimed: Option<ItemHandle> = None;
        let (st, signal) = self.tx_section(
            &[Category::VolatileFlag, Category::Libc],
            &[Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
            |ctx| {
                reclaimed = None; // attempt-local: an aborted park rolls back
                core.init_item(ctx, &policy, handle, key, flags, exptime, sizes, now)?;
                let it = core.arena.resolve(handle);
                it.write_value(ctx, &policy, sizes, value)?;
                let expanding = core.assoc.is_expanding(ctx, &policy)?;
                let _ = expanding;
                let (st, signal) =
                    self.link_new_tx(ctx, mode, key, hv, handle, false, true, Some(&mut reclaimed))?;
                if st == StoreStatus::Stored {
                    self.dur_store_record(ctx, handle, key, value, flags)?;
                    self.hot_record_store(ctx, handle, key, hv, value, flags, hot_gen)?;
                    core.item_release(ctx, &policy, handle)?;
                }
                self.stats_inline(ctx, &tstats.set_cmds, None)?;
                Ok((st, signal))
            },
        );
        if st != StoreStatus::Stored {
            // Failed predicate: never published, so still private — straight
            // back into the magazine instead of a slab-free transaction.
            debug_assert!(reclaimed.is_none());
            self.magazine_put(w, handle);
        }
        if let Some(old) = reclaimed {
            self.magazine_put(w, old);
        }
        if signal {
            self.tx_section(&[Category::SemPost], &[], |ctx| {
                self.signal_maintenance(ctx, false)
            });
        }
        st
    }

    /// Decide + unlink-old + link-new, inside whatever section the caller
    /// holds (`Ctx::Direct` for the lock branches). Returns the status and
    /// — transactionally — whether an expansion wants the maintainer.
    fn link_new<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        mode: StoreMode,
        key: &[u8],
        hv: u32,
        new_h: ItemHandle,
        evicted: bool,
    ) -> StoreStatus {
        match self.link_new_tx(ctx, mode, key, hv, new_h, evicted, false, None) {
            Ok((st, _)) => st,
            Err(_) => unreachable!("direct sections never abort"),
        }
    }

    /// Transaction-compatible version of [`McCache::link_new`]. When
    /// `defer_signal` is set (IT), the expansion wakeup is reported to the
    /// caller instead of signaled inline; the returned pair is
    /// `(status, signal_needed)`.
    ///
    /// `reclaim` (magazine path only): when an overwrite unlinks a dead
    /// old item, park it in limbo — unlinked, refcount 0, *not* on the
    /// global free list — and report its handle so the caller can merge
    /// it into the worker's magazine after commit. The pin trick (bump
    /// the refcount across the unlink, then zero it) keeps
    /// `unlink_item`'s free-on-unreferenced branch from pushing the chunk
    /// through the shared free list; an aborted attempt rolls all of it
    /// back, so the limbo state only ever exists after a successful
    /// commit, at which point serializability makes the chunk
    /// thread-private.
    #[allow(clippy::too_many_arguments)]
    fn link_new_tx<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        mode: StoreMode,
        key: &[u8],
        hv: u32,
        new_h: ItemHandle,
        evicted: bool,
        defer_signal: bool,
        reclaim: Option<&mut Option<ItemHandle>>,
    ) -> Result<(StoreStatus, bool), Abort> {
        let core = &self.core;
        let policy = self.policy;
        let existing = core.assoc.find(ctx, &policy, &core.arena, key, hv)?;
        let proceed = match (mode, existing) {
            (StoreMode::Set, _) => Ok(()),
            (StoreMode::Add, None) => Ok(()),
            (StoreMode::Add, Some(_)) => Err(StoreStatus::NotStored),
            (StoreMode::Replace, Some(_)) => Ok(()),
            (StoreMode::Replace, None) => Err(StoreStatus::NotStored),
            (StoreMode::Cas(_), None) => Err(StoreStatus::NotFound),
            (StoreMode::Cas(c), Some(old)) => {
                if core.arena.resolve(old).cas(ctx)? == c {
                    Ok(())
                } else {
                    Err(StoreStatus::Exists)
                }
            }
        };
        match proceed {
            Err(st) => {
                // Failed predicate: the item stays private; the caller's
                // item_release (refcount 1 -> 0, unlinked) frees the chunk.
                Ok((st, false))
            }
            Ok(()) => {
                if let Some(old) = existing {
                    let mut parked = false;
                    if let Some(reclaim) = reclaim {
                        let it = core.arena.resolve(old);
                        if it.refcount(ctx, &policy)? == 0 {
                            it.set_refcount(ctx, 1)?;
                            core.unlink_item(ctx, &policy, old, hv)?;
                            it.set_refcount(ctx, 0)?;
                            *reclaim = Some(old);
                            parked = true;
                        }
                    }
                    if !parked {
                        core.unlink_item(ctx, &policy, old, hv)?;
                    }
                }
                let wants_maintainer = core.link_item(ctx, &policy, new_h, hv)?;
                self.maybe_log(ctx, "set")?;
                let mut signal_later = false;
                if wants_maintainer || evicted {
                    if defer_signal {
                        signal_later = true;
                    } else {
                        self.signal_maintenance(ctx, false)?;
                        if evicted {
                            self.signal_maintenance(ctx, true)?;
                        }
                    }
                }
                Ok((StoreStatus::Stored, signal_later))
            }
        }
    }

    /// `delete key`.
    pub fn delete(&self, w: usize, key: &[u8]) -> bool {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let stripe = self.core.item_locks.stripe(hv);
        let core = &self.core;
        let policy = self.policy;
        let found = match self.policy.item_mode {
            ItemMode::Lock => {
                let _g = core.item_locks.mutex(stripe).lock();
                let _c = self.cache_lock.lock();
                let mut ctx = Ctx::Direct;
                match core
                    .assoc
                    .find(&mut ctx, &policy, &core.arena, key, hv)
                    .expect("direct")
                {
                    Some(h) => {
                        core.unlink_item(&mut ctx, &policy, h, hv).expect("direct");
                        self.dur_record(&mut ctx, Record::Del { key: key.to_vec() });
                        true
                    }
                    None => false,
                }
            }
            ItemMode::Privatize | ItemMode::Transactional => {
                if self.policy.item_mode == ItemMode::Privatize {
                    self.ip_item_lock(stripe);
                }
                let inline_stats = self.policy.item_mode == ItemMode::Transactional;
                let hot_gen = self.hot_gen();
                let tstats = &self.workers[w].stats;
                let found = self.tx_section(
                    &[Category::VolatileFlag],
                    &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
                    |ctx| {
                        let found = match core.assoc.find(ctx, &policy, &core.arena, key, hv)? {
                            Some(h) => {
                                core.unlink_item(ctx, &policy, h, hv)?;
                                self.dur_record(ctx, Record::Del { key: key.to_vec() });
                                self.hot_record_delete(ctx, key, hv, hot_gen);
                                true
                            }
                            None => false,
                        };
                        if inline_stats {
                            self.stats_inline(ctx, &tstats.delete_cmds, None)?;
                        }
                        Ok(found)
                    },
                );
                if self.policy.item_mode == ItemMode::Privatize {
                    self.ip_item_unlock(stripe);
                }
                found
            }
        };
        if self.policy.item_mode != ItemMode::Transactional {
            self.op_stats(w, |t| (&t.delete_cmds, None));
            self.bump_cmd_total();
        }
        found
    }

    /// `incr`/`decr key delta`.
    pub fn arith(&self, w: usize, key: &[u8], delta: u64, incr: bool) -> ArithStatus {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let now = self.rel_time();
        let stripe = self.core.item_locks.stripe(hv);
        let core = &self.core;
        let policy = self.policy;
        let res = match self.policy.item_mode {
            ItemMode::Lock | ItemMode::Privatize => {
                // do_add_delta runs under the item lock: privatized in IP,
                // so the strtoull/snprintf pair stays uninstrumented.
                if self.policy.item_mode == ItemMode::Privatize {
                    self.ip_item_lock(stripe);
                }
                let res = {
                    let _g = (self.policy.item_mode == ItemMode::Lock)
                        .then(|| core.item_locks.mutex(stripe).lock());
                    let mut ctx = Ctx::Direct;
                    let r = core
                        .arith(&mut ctx, &policy, key, hv, delta, incr, now)
                        .expect("direct");
                    if let Some(Ok((new, cas))) = r {
                        self.dur_record(
                            &mut ctx,
                            Record::Arith { cas, value: new, key: key.to_vec() },
                        );
                    }
                    r
                };
                if self.policy.item_mode == ItemMode::Privatize {
                    self.ip_item_unlock(stripe);
                }
                res
            }
            ItemMode::Transactional => {
                let hot_gen = self.hot_gen();
                let tstats = &self.workers[w].stats;
                self.tx_section(
                    &[Category::VolatileFlag],
                    &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
                    |ctx| {
                        let r = core.arith(ctx, &policy, key, hv, delta, incr, now)?;
                        if let Some(Ok((new, cas))) = r {
                            self.dur_record(
                                ctx,
                                Record::Arith { cas, value: new, key: key.to_vec() },
                            );
                            // The new decimal rendering is not in hand
                            // here; fence the hot slot instead of serving
                            // a pre-arith value.
                            self.hot_record_disturb(ctx, key, hv, hot_gen);
                        }
                        self.stats_inline(ctx, &tstats.arith_cmds, None)?;
                        Ok(r)
                    },
                )
            }
        };
        if self.policy.item_mode != ItemMode::Transactional {
            self.op_stats(w, |t| (&t.arith_cmds, None));
            self.bump_cmd_total();
        }
        match res {
            None => ArithStatus::NotFound,
            Some(Err(())) => ArithStatus::NonNumeric,
            Some(Ok((v, _cas))) => ArithStatus::Ok(v),
        }
    }

    /// `touch key exptime`.
    pub fn touch(&self, w: usize, key: &[u8], exptime: u32) -> bool {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let now = self.rel_time();
        let stripe = self.core.item_locks.stripe(hv);
        let core = &self.core;
        let _policy = self.policy;
        let found = match self.policy.item_mode {
            ItemMode::Lock => {
                let _g = core.item_locks.mutex(stripe).lock();
                let mut ctx = Ctx::Direct;
                self.touch_inner(&mut ctx, key, hv, exptime, now).expect("direct")
            }
            ItemMode::Privatize => {
                self.ip_item_lock(stripe);
                let mut ctx = Ctx::Direct;
                let r = self.touch_inner(&mut ctx, key, hv, exptime, now).expect("direct");
                self.ip_item_unlock(stripe);
                r
            }
            ItemMode::Transactional => {
                let hot_gen = self.hot_gen();
                self.tx_section(
                    &[Category::VolatileFlag],
                    &[Category::Libc, Category::AssertAbort],
                    |ctx| {
                        let found = self.touch_inner(ctx, key, hv, exptime, now)?;
                        if found {
                            // The expiry changed; the privatized copy's is
                            // stale. (A no-op touch commits with an elided
                            // stamp and the fence publish loses — which is
                            // correct: nothing changed.)
                            self.hot_record_disturb(ctx, key, hv, hot_gen);
                        }
                        Ok(found)
                    },
                )
            }
        };
        self.op_stats(w, |t| (&t.touch_cmds, None));
        self.bump_cmd_total();
        found
    }

    fn touch_inner<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        key: &[u8],
        hv: u32,
        exptime: u32,
        now: u32,
    ) -> Result<bool, Abort> {
        let core = &self.core;
        let policy = self.policy;
        match core.assoc.find(ctx, &policy, &core.arena, key, hv)? {
            Some(h) => {
                let it = core.arena.resolve(h);
                it.set_times(ctx, exptime, now)?;
                if self.dur.get().is_some() {
                    if ctx.in_transaction() {
                        // A touch that rewrites identical times commits
                        // with an elided (read-only) stamp; bump the nonce
                        // so the engine mints a fresh one for the record.
                        ctx.fetch_add_word(core.dur_nonce.word(), 1)?;
                    }
                    self.dur_record(
                        ctx,
                        Record::Touch {
                            abs_exp: self.abs_unix(exptime),
                            touched_unix: self.abs_unix(now),
                            key: key.to_vec(),
                        },
                    );
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// `flush_all`.
    pub fn flush_all(&self, w: usize) {
        let now = self.rel_time();
        let core = &self.core;
        let flush_unix = self.abs_unix(now);
        if !self.policy.transactional {
            let _s = self.stats_lock.lock();
            let mut ctx = Ctx::Direct;
            core.flush_all(&mut ctx, now).expect("direct");
            self.dur_record(&mut ctx, Record::FlushAll { flush_unix });
        } else {
            self.tx_section(&[], &[], |ctx| {
                core.flush_all(ctx, now)?;
                self.dur_record(ctx, Record::FlushAll { flush_unix });
                if let Some(hot) = &self.hot {
                    let hot = Arc::clone(hot);
                    ctx.defer_or_run(move || hot.bump_gen());
                }
                Ok(())
            });
        }
        if self.magazines_on() {
            // Return every parked chunk so a post-flush heap audit sees
            // all memory back on the free lists.
            self.flush_magazines();
        }
        let _ = w;
        self.bump_cmd_total();
    }

    // ------------------------------------------------------------------
    // Maintenance threads (§3.2's two Figure-2 instances)
    // ------------------------------------------------------------------

    fn assoc_maintenance_loop(&self) {
        let core = &self.core;
        let policy = self.policy;
        while !self.shutdown.load(Ordering::SeqCst) {
            // Wait to be woken: cond_wait under cache_lock in Baseline
            // (Figure 2 left), sem_wait outside the critical section after
            // the §3.2 refactor.
            if !self.policy.semaphores {
                let mut g = self.cache_lock.lock();
                g.wait_on_for(&self.assoc_cv, Duration::from_millis(20));
                drop(g);
            } else {
                self.assoc_sem.wait_timeout(Duration::from_millis(20));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.assoc_panic_trap.swap(false, Ordering::SeqCst) {
                panic!("test trap: assoc maintenance panic");
            }
            // Migrate in bounded batches until the expansion completes.
            // (idle, completed): idle ends the inner loop; completed means
            // this call finished a migration and the stat should bump.
            loop {
                let (idle, completed) = if !self.policy.transactional {
                    self.locked_migrate_batch()
                } else {
                    self.tx_section(
                        &[Category::VolatileFlag],
                        &[Category::AssertAbort],
                        |ctx| {
                            if !core.assoc.is_expanding(ctx, &policy)? {
                                return Ok((true, false));
                            }
                            let done = core
                                .assoc
                                .migrate_step(ctx, &policy, &core.arena, MIGRATE_BATCH)?;
                            Ok((done, done))
                        },
                    )
                };
                if completed {
                    if !self.policy.transactional {
                        let _s = self.stats_lock.lock();
                        let mut ctx = Ctx::Direct;
                        core.global
                            .bump(&mut ctx, &core.global.expansions)
                            .expect("direct");
                    } else {
                        self.tx_section(&[], &[], |ctx| {
                            core.global.bump(ctx, &core.global.expansions)
                        });
                    }
                }
                if idle {
                    break;
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }

    /// One migration batch on a lock branch, as `(idle, completed)`.
    /// Lookups walk the hash table under one item mutex, so the maintainer
    /// holds the item mutexes of the buckets it moves, as memcached's
    /// maintainer holds `item_lock_global`; under `cache_lock` alone a
    /// lookup could read a chain the migration is rewriting and miss a
    /// linked key.
    fn locked_migrate_batch(&self) -> (bool, bool) {
        let core = &self.core;
        let policy = self.policy;
        let mut ctx = Ctx::Direct;
        // Once `expanding` is seen set, only this thread moves the
        // frontier, so the batch read here is the batch moved below.
        let next = {
            let _c = self.cache_lock.lock();
            core.assoc.next_migration(&mut ctx, &policy, MIGRATE_BATCH)
        };
        let Some((buckets, old_len)) = next.expect("direct") else {
            return (true, false);
        };
        let mut stripes: Vec<usize> = buckets
            .flat_map(|b| core.item_locks.bucket_stripes(b, old_len))
            .collect();
        // Ascending, then cache_lock (the item -> cache order): workers
        // hold one item mutex and only try-lock another.
        stripes.sort_unstable();
        stripes.dedup();
        let _items: Vec<_> = stripes
            .iter()
            .map(|&s| core.item_locks.mutex(s).lock())
            .collect();
        let _c = self.cache_lock.lock();
        let done = core
            .assoc
            .migrate_step(&mut ctx, &policy, &core.arena, MIGRATE_BATCH)
            .expect("direct");
        (done, done)
    }

    fn slab_rebalance_loop(&self) {
        let core = &self.core;
        let policy = self.policy;
        while !self.shutdown.load(Ordering::SeqCst) {
            if !self.policy.semaphores {
                let mut g = self.slabs_lock.lock();
                g.wait_on_for(&self.slab_cv, Duration::from_millis(25));
                drop(g);
            } else {
                self.slab_sem.wait_timeout(Duration::from_millis(25));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.slab_panic_trap.swap(false, Ordering::SeqCst) {
                panic!("test trap: slab rebalance panic");
            }
            // Acquire the rebalance lock: a trylock spin on the mutex in
            // the lock branches; the transactional boolean (§3.1) after.
            if !self.policy.transactional {
                let guard = loop {
                    if let Some(g) = self.rebalance_mutex.try_lock() {
                        break Some(g);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    std::thread::yield_now(); // the paper's pthread_yield fallback
                };
                let Some(_guard) = guard else { return };
                let _s = self.slabs_lock.lock();
                let mut ctx = Ctx::Direct;
                self.rebalance_once(&mut ctx).expect("direct");
            } else {
                loop {
                    let got = self.tx_section(&[Category::VolatileFlag], &[], |ctx| {
                        let sig =
                            ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                        let _ = sig;
                        let cell = core.arena.rebalance_lock.word();
                        if ctx.get_word(cell)? != 0 {
                            Ok(false)
                        } else {
                            ctx.put_word(cell, 1)?;
                            Ok(true)
                        }
                    });
                    if got {
                        break;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::yield_now();
                }
                self.tx_section(
                    &[Category::VolatileFlag],
                    &[Category::AssertAbort],
                    |ctx| self.rebalance_once(ctx),
                );
                self.tx_section(&[], &[], |ctx| {
                    ctx.put_word(core.arena.rebalance_lock.word(), 0)
                });
            }
        }
    }

    /// One rebalance attempt under the slabs lock / inside a transaction.
    fn rebalance_once<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<(), Abort> {
        let core = &self.core;
        let policy = self.policy;
        if ctx.volatile_read(&policy, core.arena.rebalance_signal.word())? == 0 {
            return Ok(());
        }
        let receiver = ctx.get_word(core.arena.needy_class.word())? as u8;
        if let Some(donor) = core.arena.pick_donor(ctx)? {
            if core.arena.rebalance_step(ctx, &policy, donor, receiver)? {
                let n = ctx.get_word(core.global.rebalances.word())?;
                ctx.put_word(core.global.rebalances.word(), n + 1)?;
                // A reassigned page's items vanished without per-key
                // publication; invalidate the hot set at commit.
                if let Some(hot) = &self.hot {
                    let hot = Arc::clone(hot);
                    ctx.defer_or_run(move || hot.bump_gen());
                }
            }
        }
        ctx.volatile_write(&policy, core.arena.rebalance_signal.word(), 0)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Adaptive controller (DESIGN §15)
    // ------------------------------------------------------------------

    /// The feedback loop: sleep one epoch (in short chunks so shutdown
    /// stays prompt), then evaluate. Runs under the same supervisor as the
    /// maintenance threads — a panicking tick loses one epoch, not the
    /// controller.
    fn adapt_loop(&self) {
        let epoch = Duration::from_millis(self.cfg.adapt_epoch_ms.max(5));
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut left = epoch;
            while left > Duration::ZERO {
                let step = left.min(Duration::from_millis(20));
                std::thread::sleep(step);
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                left = left.saturating_sub(step);
            }
            self.adapt_tick();
        }
    }

    /// One controller epoch, run synchronously: sample counter deltas
    /// since the previous tick, feed them to the pure policy in
    /// [`tm::adapt`], and apply whatever changed. Public (hidden) so tests
    /// can drive epochs deterministically without the timer thread.
    #[doc(hidden)]
    pub fn adapt_tick(&self) {
        let mut st = self.adapt_state.lock().unwrap();
        let tm_now = self.rt.stats();
        let delta = StatsSnapshot {
            commits: tm_now.commits.saturating_sub(st.tm.commits),
            read_only_commits: tm_now
                .read_only_commits
                .saturating_sub(st.tm.read_only_commits),
            aborts: tm_now.aborts.saturating_sub(st.tm.aborts),
            ..Default::default()
        };
        // (a) Algorithm + contention manager, via the quiesce-and-swap.
        let next = tm::adapt::decide(&delta, st.cur);
        if next != st.cur
            && self.policy.serial_lock
            && self.rt.switch_config(next.algorithm, next.cm).is_ok()
        {
            st.cur = next;
        }
        // (b) Read-lane tuning: in strongly read-dominated phases, stretch
        // the LRU-bump cadence so more GETs stay pure read-only fast-lane
        // commits; restore the configured cadence when writes return.
        if delta.commits >= tm::adapt::MIN_EPOCH_COMMITS {
            let base = self.cfg.lru_bump_every;
            let ro_frac = delta.read_only_commits as f64 / delta.commits as f64;
            let target = if base != 0 && ro_frac >= tm::adapt::RO_HIGH {
                base.saturating_mul(8)
            } else {
                base
            };
            if self.bump_every.load(Ordering::Relaxed) != target {
                self.bump_every.store(target, Ordering::Relaxed);
                self.adapt_ro_tunes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // (c) Magazine autosizing from observed refill/flush churn.
        let sets_now: u64 = self
            .workers
            .iter()
            .map(|w| w.stats.snapshot_direct().set_cmds)
            .sum();
        let g = self.core.global.snapshot_direct();
        if self.magazines_on() {
            let cap = self.mag_cap.load(Ordering::Relaxed);
            let newcap = tm::adapt::size_magazine(
                cap,
                sets_now.saturating_sub(st.sets),
                g.magazine_refills.saturating_sub(st.refills),
                g.magazine_flushes.saturating_sub(st.flushes),
                MAG_MIN,
                MAG_MAX,
            );
            if newcap != cap {
                self.mag_cap.store(newcap, Ordering::Relaxed);
                self.adapt_mag_resizes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // (d) Hot keys: aggregate the per-worker sketches and rearm when
        // the top set changed. Deterministic order: count desc, hash asc.
        if let Some(hot) = &self.hot {
            let mut counts: std::collections::BTreeMap<u32, u64> = Default::default();
            for wslot in &self.workers {
                for (hv, c) in wslot.sketch.drain() {
                    *counts.entry(hv).or_insert(0) += c as u64;
                }
            }
            let mut top: Vec<(u32, u64)> = counts
                .into_iter()
                .filter(|&(_, c)| c >= HOT_MIN_COUNT)
                .collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            top.truncate(self.cfg.hot_slots);
            let tags: Vec<u32> = top.into_iter().map(|(hv, _)| hv).collect();
            if !tags.is_empty() && tags != st.armed {
                hot.retune(&tags);
                st.armed = tags;
            }
        }
        st.tm = tm_now;
        st.sets = sets_now;
        st.refills = g.magazine_refills;
        st.flushes = g.magazine_flushes;
        drop(st);
        self.adapt_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Arms exactly these keys in the hot set (tests and benchmarks; the
    /// controller normally does this from the sketches).
    #[doc(hidden)]
    pub fn hot_install_keys(&self, keys: &[&[u8]]) {
        if let Some(hot) = &self.hot {
            let tags: Vec<u32> = keys.iter().map(|k| jenkins_hash(k, 0)).collect();
            hot.retune(&tags);
            self.adapt_state.lock().unwrap().armed = tags;
        }
    }

    /// The TM configuration currently installed (reflects controller
    /// switches).
    pub fn tm_config(&self) -> (Algorithm, ContentionManager) {
        (self.rt.algorithm(), self.rt.contention_manager())
    }
}
