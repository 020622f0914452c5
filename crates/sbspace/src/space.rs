//! The sbspace facade: transactions, large-object lifecycle, and
//! recovery.
//!
//! This is the surface the DataBlade's BLOB-manipulation layer talks to
//! (the paper's `Create()`, `Drop()`, `Open()`, `Close()`, `Read()`,
//! `Write()` functions): create/open/drop large objects under automatic
//! LO-level two-phase locking, read/write them by page or by byte
//! range, and commit or abort atomically. Opening a space replays the
//! write-ahead log: metadata images unconditionally, data images of
//! committed transactions, and compensation (freeing) of pages
//! allocated by transactions that never finished.

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::buffer::{BufferPool, PageGuard};
use crate::group::GroupCommitter;
use crate::lo::{decode_free_next, encode_free_page, Header, Inode, LoId};
use crate::lock::{IsolationLevel, LockManager, LockMode};
use crate::page::{PageBuf, PageId, NO_PAGE, PAGE_SIZE};
use crate::stats::IoStats;
use crate::txn::{TxnEnd, TxnId, TxnState};
use crate::wal::{FileWal, MemWal, WalRecord, WalStore};
use crate::{Result, SbError};
use grt_metrics::{Counter, Gauge, Metrics};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for an sbspace.
#[derive(Debug, Clone)]
pub struct SbspaceOptions {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Number of lock-striped buffer-pool shards (`page_id % shards`).
    /// More shards reduce contention between threads touching different
    /// pages; a power of two near the expected thread count works well.
    pub pool_shards: usize,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
    /// When true, a commit's data-page writes are deferred entirely
    /// (no-force — the WAL's redo images carry durability): the
    /// checkpointer, or eviction pressure, writes them later. When
    /// false (the default), every commit forces its data pages to the
    /// backend and syncs it. Either way the log itself is shared:
    /// committers ride a group-commit leader's append and sync.
    pub group_commit: bool,
    /// Maximum commit batches a group-commit leader flushes per sync
    /// (queued allocation and free-list batches ride along uncounted).
    pub commit_batch_size: usize,
    /// Size at which a WAL segment rolls. Together with the checkpoint
    /// cadence this bounds both the log's footprint and how much of it
    /// recovery replays.
    pub wal_segment_bytes: usize,
    /// When set, a background thread fuzzy-checkpoints the space at
    /// this cadence: it incrementally flushes committed-dirty frames,
    /// writes a checkpoint record, recycles every WAL segment below the
    /// active-transaction low-water mark, and sweeps retired page
    /// batches whose snapshots have drained. `None` (the default) runs
    /// no thread; [`Sbspace::checkpoint`] still checkpoints on demand.
    pub checkpoint_interval: Option<Duration>,
    /// Background prefetch worker threads in the buffer pool. Scans
    /// announce upcoming pages ([`LoHandle::prefetch`],
    /// [`LoReader::prefetch`]) and the workers fault them in through
    /// vectored backend reads, overlapping I/O with compute. `0` (the
    /// default) disables prefetch entirely — announcements are no-ops.
    pub prefetch_workers: usize,
    /// Bound on the prefetch queue, in pages. Announcements past the
    /// bound are dropped (prefetch is advisory, never back-pressure).
    pub prefetch_depth: usize,
}

impl Default for SbspaceOptions {
    fn default() -> Self {
        SbspaceOptions {
            pool_pages: 256,
            pool_shards: 8,
            lock_timeout: Duration::from_secs(2),
            group_commit: false,
            commit_batch_size: 32,
            wal_segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            checkpoint_interval: None,
            prefetch_workers: 0,
            prefetch_depth: 64,
        }
    }
}

/// A snapshot of space occupancy (see [`Sbspace::space_info`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceInfo {
    /// Allocation watermark (pages ever handed out, header included).
    pub total_pages: u32,
    /// Pages currently on the free list.
    pub free_pages: u32,
    /// Live large objects (advisory).
    pub lo_count: u32,
}

type EndCallback = Box<dyn Fn(TxnId, TxnEnd) + Send + Sync>;

/// A committed page table of one large object, as last published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoTable {
    pub pages: Vec<u32>,
    pub size: u64,
}

/// The versioned registry of committed page tables. `tables` is swapped
/// wholesale at each publishing commit, so cloning the `Arc` yields a
/// transactionally consistent cut across every large object; `epoch`
/// counts publishes that retired pages, and `open`/`retired` gate the
/// reclamation of superseded pages on the oldest live snapshot.
struct PublishedState {
    epoch: u64,
    tables: Arc<HashMap<u32, Arc<LoTable>>>,
    /// Live snapshots per epoch (count of [`SpaceSnapshot`]s opened
    /// while `epoch` had that value).
    open: BTreeMap<u64, usize>,
    /// Retired page batches, each tagged with the epoch whose snapshots
    /// may still reference them. A batch is freed once every open
    /// snapshot's epoch is strictly newer.
    retired: VecDeque<(u64, Vec<u32>)>,
}

pub(crate) struct SpaceInner {
    /// Sharded and internally synchronised — no outer lock.
    pool: BufferPool,
    wal: Box<dyn WalStore>,
    /// The WAL's only writer at runtime: every record is appended in
    /// its sequence order.
    group: GroupCommitter,
    /// No-force commits (see [`SbspaceOptions::group_commit`]).
    group_commit: bool,
    pub(crate) lm: LockManager,
    stats: Arc<IoStats>,
    /// Engine-wide metrics registry; holds the [`IoStats`] cells under
    /// `sbspace.*` names and is shared upward so higher layers (ids,
    /// the tree access methods) register their counters alongside.
    metrics: Arc<Metrics>,
    /// Serialises header/free-list operations.
    meta: Mutex<()>,
    txns: Mutex<HashMap<u64, TxnState>>,
    next_txn: AtomicU64,
    callbacks: Mutex<Vec<EndCallback>>,
    /// Committed page tables and snapshot/reclamation bookkeeping.
    published: Mutex<PublishedState>,
    /// Excludes retired-batch reclamation from a checkpoint's
    /// capture-to-durable window. A checkpoint copies `retired` into its
    /// record and only *later* gets that record on disk; if a snapshot
    /// drop or a commit popped one of those batches in between, its
    /// pages could be freed, reallocated, and the reallocation's
    /// `AllocNote` logged *before* the checkpoint record — replay would
    /// then honour the record's stale claim and free a live page. Held
    /// by the checkpoint from capture until the record is durable (and
    /// through its own sweep, so concurrent checkpoints serialise), and
    /// by every site that pops batches via `reclaimable` and frees them.
    /// Lock order: `retire_guard` before `published`.
    retire_guard: Mutex<()>,
    /// Transactions past their durable commit point whose frames are
    /// not yet relabelled committed-dirty in the pool, keyed by txn id
    /// with the segment active at their begin. A checkpoint's low-water
    /// mark covers these as well as `txns`: recycling the segment
    /// holding such a transaction's redo images before the pool knows
    /// about them would lose a committed transaction on crash.
    committing: Mutex<HashMap<u64, u64>>,
    /// Snapshot reads taken (`sbspace.snapshot_reads`).
    snapshot_reads: Counter,
    /// Snapshots currently open (`sbspace.snapshots_open`).
    snapshots_open: Gauge,
    /// Published page-table entries superseded (`sbspace.page_tables_retired`).
    page_tables_retired: Counter,
    /// Fuzzy checkpoints completed (`sbspace.checkpoints`).
    checkpoints: Counter,
    /// Checkpoint attempts that failed (`sbspace.checkpoint_failures`).
    /// The previous checkpoint stays authoritative: nothing was
    /// recycled or truncated.
    checkpoint_failures: Counter,
    /// WAL segments deleted by checkpoints (`wal.segments_recycled`).
    segments_recycled: Counter,
    /// Bytes across live WAL segments as of the last checkpoint
    /// (`wal.live_bytes`).
    wal_live_bytes: Gauge,
    /// The configured `(prefetch_workers, prefetch_depth)` — surfaced
    /// by [`Sbspace::prefetch_params`] so EXPLAIN output can report the
    /// scan prefetch mode.
    prefetch_params: (usize, usize),
    /// Background checkpointer shutdown flag + wakeup.
    ckpt_stop: Arc<(Mutex<bool>, Condvar)>,
    /// The background checkpointer, when `checkpoint_interval` is set.
    ckpt_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// A store of smart large objects. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Sbspace {
    inner: Arc<SpaceInner>,
}

/// A transaction handle. Dropping an unfinished transaction aborts it.
pub struct Txn {
    inner: Arc<SpaceInner>,
    id: TxnId,
    done: AtomicBool,
}

/// An open large object, holding the lock its open acquired.
pub struct LoHandle {
    inner: Arc<SpaceInner>,
    txn: TxnId,
    lo: LoId,
    mode: LockMode,
    inode: Inode,
    inode_dirty: bool,
    closed: bool,
}

impl Sbspace {
    /// Opens a space over arbitrary backend and log, running recovery
    /// and initialising a fresh header when the store is blank.
    pub fn open_with(
        backend: impl Backend + 'static,
        wal: impl WalStore + 'static,
        opts: SbspaceOptions,
    ) -> Result<Sbspace> {
        let stats = IoStats::new_shared();
        let metrics = Metrics::shared();
        stats.register_in(&metrics);
        let group = GroupCommitter::new(opts.commit_batch_size);
        let pool = BufferPool::with_prefetch(
            Box::new(backend),
            opts.pool_pages,
            opts.pool_shards,
            Arc::clone(&stats),
            opts.prefetch_workers,
            opts.prefetch_depth,
            group.durable_seq(),
        );
        Self::recover(&pool, &wal)?;
        // Initialise the header if the space is brand new.
        let mut page0 = crate::page::zeroed_page();
        pool.recovery_read(PageId(0), &mut page0)?;
        if Header::is_blank(&page0) {
            pool.recovery_write(PageId(0), &Header::fresh().encode())?;
            pool.sync_backend()?;
        } else {
            Header::decode(&page0)?;
        }
        pool.invalidate();
        let snapshot_reads = metrics.counter("sbspace.snapshot_reads");
        let snapshots_open = metrics.gauge("sbspace.snapshots_open");
        let page_tables_retired = metrics.counter("sbspace.page_tables_retired");
        let checkpoints = metrics.counter("sbspace.checkpoints");
        let checkpoint_failures = metrics.counter("sbspace.checkpoint_failures");
        let segments_recycled = metrics.counter("wal.segments_recycled");
        let wal_live_bytes = metrics.gauge("wal.live_bytes");
        let space = Sbspace {
            inner: Arc::new(SpaceInner {
                pool,
                wal: Box::new(wal),
                group,
                group_commit: opts.group_commit,
                lm: LockManager::new(opts.lock_timeout, Arc::clone(&stats)),
                stats,
                metrics,
                meta: Mutex::new(()),
                txns: Mutex::new(HashMap::new()),
                next_txn: AtomicU64::new(1),
                callbacks: Mutex::new(Vec::new()),
                published: Mutex::new(PublishedState {
                    epoch: 0,
                    tables: Arc::new(HashMap::new()),
                    open: BTreeMap::new(),
                    retired: VecDeque::new(),
                }),
                retire_guard: Mutex::new(()),
                committing: Mutex::new(HashMap::new()),
                snapshot_reads,
                snapshots_open,
                page_tables_retired,
                checkpoints,
                checkpoint_failures,
                segments_recycled,
                wal_live_bytes,
                prefetch_params: (opts.prefetch_workers, opts.prefetch_depth),
                ckpt_stop: Arc::new((Mutex::new(false), Condvar::new())),
                ckpt_thread: Mutex::new(None),
            }),
        };
        if let Some(interval) = opts.checkpoint_interval {
            space.spawn_checkpointer(interval);
        }
        Ok(space)
    }

    /// An in-memory space (tests, benchmarks).
    pub fn mem(opts: SbspaceOptions) -> Sbspace {
        let wal = MemWal::with_segment_bytes(opts.wal_segment_bytes);
        Sbspace::open_with(MemBackend::new(), wal, opts).expect("mem space")
    }

    /// A file-backed space in `dir` (`pages.db` + a `wal/` segment
    /// directory).
    pub fn file(dir: &Path, opts: SbspaceOptions) -> Result<Sbspace> {
        std::fs::create_dir_all(dir).map_err(|e| SbError::Io(e.to_string()))?;
        let backend = FileBackend::open(&dir.join("pages.db"))?;
        let wal = FileWal::open_with(&dir.join("wal"), opts.wal_segment_bytes)?;
        Sbspace::open_with(backend, wal, opts)
    }

    /// Spawns the background fuzzy checkpointer. The thread holds only
    /// a weak handle, so it never keeps a closed space alive; it skips
    /// ticks where nothing new was logged and no retired batch waits.
    fn spawn_checkpointer(&self, interval: Duration) {
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.ckpt_stop);
        let handle = std::thread::Builder::new()
            .name("sbspace-checkpoint".into())
            .spawn(move || {
                let mut last_appended = u64::MAX; // first tick always runs
                loop {
                    {
                        let (flag, cond) = &*stop;
                        let mut stopped = flag.lock();
                        if !*stopped {
                            cond.wait_for(&mut stopped, interval);
                        }
                        if *stopped {
                            return;
                        }
                    }
                    let Some(inner) = weak.upgrade() else { return };
                    let appended = inner.wal.appended_total();
                    let retire_pending = !inner.published.lock().retired.is_empty();
                    if appended != last_appended || retire_pending {
                        last_appended = appended;
                        // Failure leaves the previous checkpoint
                        // authoritative; the failure counter is bumped
                        // inside and the next tick retries.
                        let _ = inner.run_checkpoint();
                    }
                }
            })
            .expect("spawn checkpointer");
        *self.inner.ckpt_thread.lock() = Some(handle);
    }

    /// Log replay, streamed one segment at a time so recovery memory is
    /// O(segment), not O(log): metadata images always, data images of
    /// committed transactions, checkpoint retire carry-overs, then
    /// compensation for unfinished allocations.
    ///
    /// A torn tail — an undecodable suffix — is a legal crash artefact
    /// only in the youngest segment; older segments were sealed by a
    /// roll and must decode cleanly, so an unclean tail there is real
    /// corruption and recovery refuses to guess past it.
    fn recover(pool: &BufferPool, wal: &dyn WalStore) -> Result<()> {
        let segs = wal.segments()?;
        // Pass 1: transaction statuses (and the sealed-segment
        // cleanliness check). Only ids are retained — page images are
        // decoded again in pass 2 and dropped segment by segment.
        let mut finished: HashSet<TxnId> = HashSet::new();
        let mut committed: HashSet<TxnId> = HashSet::new();
        let mut any = false;
        for (i, &seg) in segs.iter().enumerate() {
            let bytes = wal.read_segment(seg)?;
            let (records, clean) = WalRecord::decode_segment(&bytes);
            if !clean && i + 1 != segs.len() {
                return Err(SbError::Corrupt(format!(
                    "wal segment {seg} is sealed but does not decode cleanly"
                )));
            }
            any |= !records.is_empty();
            for r in &records {
                match r {
                    WalRecord::Commit { txn } => {
                        committed.insert(*txn);
                        finished.insert(*txn);
                    }
                    WalRecord::Abort { txn } => {
                        finished.insert(*txn);
                    }
                    _ => {}
                }
            }
        }
        if !any {
            return Ok(());
        }
        let mut leaked: Vec<u32> = Vec::new();
        // Pages retired by committed transactions whose deferred
        // reclamation may not have reached the free list (a snapshot
        // held them at the crash), plus retire claims a checkpoint
        // record carried forward from recycled segments. A later
        // AllocNote for the same page proves its reclamation DID
        // complete — the page was handed out again — so the retire
        // claim is cancelled in log order.
        let mut retired: HashSet<u32> = HashSet::new();
        for &seg in &segs {
            let bytes = wal.read_segment(seg)?;
            let (records, _) = WalRecord::decode_segment(&bytes);
            for r in &records {
                match r {
                    WalRecord::MetaImage { pid, data } => {
                        pool.recovery_write(PageId(*pid), data)?;
                    }
                    WalRecord::PageImage { txn, pid, data } if committed.contains(txn) => {
                        pool.recovery_write(PageId(*pid), data)?;
                    }
                    WalRecord::AllocNote { txn, pages } => {
                        for p in pages {
                            retired.remove(p);
                        }
                        if !finished.contains(txn) {
                            leaked.extend_from_slice(pages);
                        }
                    }
                    WalRecord::RetireNote { txn, pages } if committed.contains(txn) => {
                        retired.extend(pages.iter().copied());
                    }
                    WalRecord::Checkpoint { pending_retire } => {
                        // Retired pages still pinned by snapshots when
                        // the checkpoint ran: a crash ended those
                        // snapshots, so they free exactly like committed
                        // retire notes (idempotently — the free-list
                        // scan below skips pages already freed).
                        retired.extend(pending_retire.iter().copied());
                    }
                    _ => {}
                }
            }
        }
        leaked.extend(retired);
        if !leaked.is_empty() {
            // Free leaked pages, skipping any already on the free list
            // (a crash mid-abort may have freed a prefix).
            let mut page0 = crate::page::zeroed_page();
            pool.recovery_read(PageId(0), &mut page0)?;
            if !Header::is_blank(&page0) {
                let mut header = Header::decode(&page0)?;
                let mut free: HashSet<u32> = HashSet::new();
                let mut cursor = header.free_head;
                while cursor != NO_PAGE {
                    if !free.insert(cursor) {
                        return Err(SbError::Corrupt("free-list cycle".into()));
                    }
                    let mut p = crate::page::zeroed_page();
                    pool.recovery_read(PageId(cursor), &mut p)?;
                    cursor = decode_free_next(&p)?;
                }
                for pid in leaked {
                    if pid == 0 || pid >= header.total_pages || free.contains(&pid) {
                        continue;
                    }
                    pool.recovery_write(PageId(pid), &encode_free_page(header.free_head))?;
                    header.free_head = pid;
                    free.insert(pid);
                }
                pool.recovery_write(PageId(0), &header.encode())?;
            }
        }
        pool.sync_backend()?;
        wal.truncate()?;
        pool.invalidate();
        Ok(())
    }

    /// Starts a transaction.
    pub fn begin(&self, iso: IsolationLevel) -> Txn {
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::SeqCst));
        // Read the active segment *before* publishing the transaction:
        // segment ids only grow, so this is a valid lower bound on
        // where any of the transaction's records can land.
        let start_seg = self.inner.wal.active_segment();
        self.inner
            .txns
            .lock()
            .insert(id.0, TxnState::new(iso, start_seg));
        // Deliberately not logged: recovery infers unfinished
        // transactions from the absence of a Commit/Abort record, and a
        // fire-and-forget Begin append could tear and strand every
        // later record beyond the garbage.
        Txn {
            inner: Arc::clone(&self.inner),
            id,
            done: AtomicBool::new(false),
        }
    }

    /// Registers an end-of-transaction callback (the paper's Section 5.4
    /// mechanism for clearing per-transaction named memory).
    pub fn on_txn_end(&self, f: impl Fn(TxnId, TxnEnd) + Send + Sync + 'static) {
        self.inner.callbacks.lock().push(Box::new(f));
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.stats)
    }

    /// The engine-wide metrics registry. The `sbspace.*` counters are
    /// pre-registered; callers add their own counters and histograms
    /// next to them and diff [`Metrics::snapshot`]s for per-phase costs.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Number of large objects currently locked (diagnostic).
    pub fn locked_objects(&self) -> usize {
        self.inner.lm.lock_count()
    }

    /// The configured `(prefetch_workers, prefetch_depth)` pair.
    /// `(0, _)` means scan prefetch is off.
    pub fn prefetch_params(&self) -> (usize, usize) {
        self.inner.prefetch_params
    }

    /// Blocks until the prefetch queue has drained (benchmark hook;
    /// no-op when prefetch is off).
    pub fn prefetch_quiesce(&self) {
        self.inner.pool.prefetch_quiesce();
    }

    /// Writes every committed frame back and drops the cache, so the
    /// next reads hit the backend cold (benchmark hook — lets a
    /// cold-scan harness measure physical I/O without reopening the
    /// space). Quiesces the prefetcher first so in-flight installs
    /// don't repopulate the cache behind the drop, and syncs the queued
    /// WAL records so metadata frames may be written back. Refuses
    /// while a transaction holds uncommitted frames, which cannot be.
    pub fn drop_page_cache(&self) -> Result<()> {
        let inner = &self.inner;
        inner.pool.prefetch_quiesce();
        if inner.pool.any_dirty() {
            return Err(SbError::Usage("page cache holds uncommitted writes".into()));
        }
        inner.group.flush(inner.wal.as_ref(), &inner.stats)?;
        inner.pool.flush_committed()?;
        inner.pool.sync_backend()?;
        inner.pool.invalidate();
        Ok(())
    }

    /// The lock mode `txn` currently holds on `lo`, if any (diagnostic).
    pub fn lock_held(&self, txn: &Txn, lo: LoId) -> Option<LockMode> {
        self.inner.lm.held(txn.id(), lo.0)
    }

    /// Number of transactions currently blocked on a lock (diagnostic).
    pub fn lock_waiters(&self) -> usize {
        self.inner.lm.waiter_count()
    }

    /// True when the lock table and the wait-for graph are both empty.
    /// A correctly quiesced workload — every session's transactions
    /// committed or aborted — must leave the lock manager in this
    /// state; the stress harness asserts it.
    pub fn locks_quiescent(&self) -> bool {
        self.inner.lm.is_quiescent()
    }

    /// Creates a new large object, exclusively locked by `txn`.
    pub fn create_lo(&self, txn: &Txn) -> Result<LoId> {
        txn.check_live()?;
        let pid = self.inner.alloc_pages(txn.id, 1)?.pop().expect("one page");
        let id = LoId(pid);
        self.inner.lock_for(txn.id, id, LockMode::Exclusive)?;
        // The inode itself is transactional data: invisible until commit.
        let images = Inode::empty().encode(id);
        for (p, data) in images {
            self.inner.pool.write_txn(txn.id, PageId(p), &data);
        }
        Ok(id)
    }

    /// Opens a large object, acquiring a shared (read) or exclusive
    /// (write) lock per the paper's sbspace semantics.
    pub fn open_lo(&self, txn: &Txn, lo: LoId, mode: LockMode) -> Result<LoHandle> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, mode)?;
        IoStats::bump(&self.inner.stats.lo_opens);
        let inode = self.inner.load_inode(lo)?;
        Ok(LoHandle {
            inner: Arc::clone(&self.inner),
            txn: txn.id,
            lo,
            mode,
            inode,
            inode_dirty: false,
            closed: false,
        })
    }

    /// Schedules a large object for destruction at commit (it stays
    /// exclusively locked until then).
    pub fn drop_lo(&self, txn: &Txn, lo: LoId) -> Result<()> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, LockMode::Exclusive)?;
        // Validate it exists now rather than failing at commit.
        self.inner.load_inode(lo)?;
        let mut txns = self.inner.txns.lock();
        let st = txns.get_mut(&txn.id.0).ok_or(SbError::TxnEnded)?;
        st.pending_drops.push(lo.0);
        Ok(())
    }

    /// Verifies a large object's page table (the `am_check` primitive):
    /// in-range page ids and no duplicates.
    pub fn verify_lo(&self, txn: &Txn, lo: LoId) -> Result<()> {
        txn.check_live()?;
        self.inner.lock_for(txn.id, lo, LockMode::Shared)?;
        let inode = self.inner.load_inode(lo)?;
        let header = self.inner.read_header()?;
        let mut seen = HashSet::new();
        for pid in inode.all_pages(lo) {
            if pid >= header.total_pages {
                return Err(SbError::Corrupt(format!("{lo}: page {pid} out of range")));
            }
            if !seen.insert(pid) {
                return Err(SbError::Corrupt(format!("{lo}: duplicate page {pid}")));
            }
        }
        Ok(())
    }

    /// Space occupancy: allocation watermark, free pages, live objects.
    pub fn space_info(&self) -> Result<SpaceInfo> {
        let _g = self.inner.meta.lock();
        let header = self.inner.read_header()?;
        let mut free = 0u32;
        let mut cursor = header.free_head;
        let mut seen = HashSet::new();
        while cursor != NO_PAGE {
            if !seen.insert(cursor) {
                return Err(SbError::Corrupt("free-list cycle".into()));
            }
            free += 1;
            let mut p = crate::page::zeroed_page();
            self.inner.pool.read(PageId(cursor), &mut p)?;
            cursor = decode_free_next(&p)?;
        }
        Ok(SpaceInfo {
            total_pages: header.total_pages,
            free_pages: free,
            lo_count: header.lo_count,
        })
    }

    /// Runs one fuzzy checkpoint now (the same routine the background
    /// thread runs): flushes committed-dirty frames shard by shard —
    /// writers proceed meanwhile — syncs the backend, writes a
    /// checkpoint record carrying the snapshot-pinned retire backlog,
    /// recycles every WAL segment wholly below the active-transaction
    /// low-water mark, and sweeps retired page batches whose snapshots
    /// have drained. Active transactions are fine: their segments are
    /// simply kept.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.run_checkpoint()
    }

    /// Bytes across all live WAL segments.
    pub fn wal_live_bytes(&self) -> Result<u64> {
        self.inner.wal.live_bytes()
    }

    /// Number of live WAL segments.
    pub fn wal_segment_count(&self) -> Result<usize> {
        Ok(self.inner.wal.segments()?.len())
    }

    /// Retired page batches still gated behind open snapshots
    /// (diagnostic; the checkpointer sweeps drained batches).
    pub fn retired_batches(&self) -> usize {
        self.inner.published.lock().retired.len()
    }

    /// Takes a consistent snapshot covering the given large objects:
    /// their last **committed** page tables, pinned against reclamation
    /// until the snapshot drops. No LO-level lock is held by the
    /// snapshot — concurrent writers proceed under 2PL and shadow
    /// paging, and this snapshot keeps seeing the pre-commit pages.
    ///
    /// Objects never published since the space opened are seeded from
    /// their inodes under a momentary shared lock (so an in-flight
    /// writer's uncommitted table is never captured). Errors if an
    /// object does not exist — callers fall back to the locked read
    /// path.
    pub fn snapshot_for(&self, los: &[LoId]) -> Result<SpaceSnapshot> {
        for &lo in los {
            self.inner.publish_if_absent(lo)?;
        }
        let mut published = self.inner.published.lock();
        for &lo in los {
            if !published.tables.contains_key(&lo.0) {
                return Err(SbError::NotFound(format!("{lo}: not published")));
            }
        }
        let epoch = published.epoch;
        *published.open.entry(epoch).or_insert(0) += 1;
        let tables = Arc::clone(&published.tables);
        drop(published);
        self.inner.snapshot_reads.inc();
        self.inner.snapshots_open.inc();
        Ok(SpaceSnapshot {
            inner: Arc::clone(&self.inner),
            epoch,
            tables,
        })
    }

    /// Number of snapshots currently open (diagnostic; also exported as
    /// the `sbspace.snapshots_open` gauge).
    pub fn snapshots_open(&self) -> u64 {
        self.inner.snapshots_open.get()
    }
}

/// A consistent read view over the committed page tables of a set of
/// large objects, taken by [`Sbspace::snapshot_for`]. Holding the
/// snapshot pins every page it references: pages a concurrent writer
/// retires stay readable and are only returned to the free list after
/// the last snapshot of their epoch drops.
///
/// Cheap to clone at the `Arc` level by the caller; internally it is
/// one epoch registration, deregistered on drop.
pub struct SpaceSnapshot {
    inner: Arc<SpaceInner>,
    epoch: u64,
    tables: Arc<HashMap<u32, Arc<LoTable>>>,
}

impl SpaceSnapshot {
    /// The publish epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the snapshot covers `lo`.
    pub fn contains(&self, lo: LoId) -> bool {
        self.tables.contains_key(&lo.0)
    }

    /// Opens a lock-free reader over `lo`'s snapshotted page table.
    /// The returned [`LoReader`] must not outlive this snapshot — the
    /// snapshot's registration is what keeps the pages unreclaimed.
    pub fn reader(&self, lo: LoId) -> Result<LoReader> {
        let table = self
            .tables
            .get(&lo.0)
            .ok_or_else(|| SbError::NotFound(format!("{lo}: not in snapshot")))?;
        Ok(LoReader {
            inner: Arc::clone(&self.inner),
            lo,
            pages: table.pages.clone(),
        })
    }

    /// Byte size of `lo` in the snapshot.
    pub fn len_of(&self, lo: LoId) -> Result<u64> {
        self.tables
            .get(&lo.0)
            .map(|t| t.size)
            .ok_or_else(|| SbError::NotFound(format!("{lo}: not in snapshot")))
    }
}

impl Drop for SpaceSnapshot {
    fn drop(&mut self) {
        // Pop and free under the retire guard: a checkpoint that has
        // already captured these batches for its record must get that
        // record durable before the pages can re-enter circulation.
        let retire = self.inner.retire_guard.lock();
        let to_reclaim = {
            let mut published = self.inner.published.lock();
            match published.open.get_mut(&self.epoch) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    published.open.remove(&self.epoch);
                }
            }
            SpaceInner::reclaimable(&mut published)
        };
        self.inner.snapshots_open.dec();
        // Reclamation failure in a destructor is unreportable; on a
        // store whose log fails the pages stay unreachable until the
        // next recovery replays their retire notes.
        let _ = self.inner.free_pages(&to_reclaim, None);
        drop(retire);
    }
}

impl SpaceInner {
    fn read_header(&self) -> Result<Header> {
        let mut buf = crate::page::zeroed_page();
        self.pool.read(PageId(0), &mut buf)?;
        Header::decode(&buf)
    }

    fn lock_for(&self, txn: TxnId, lo: LoId, mode: LockMode) -> Result<()> {
        self.lm.acquire(txn, lo.0, mode)?;
        if let Some(st) = self.txns.lock().get_mut(&txn.0) {
            st.locks.insert(lo.0);
        }
        Ok(())
    }

    fn load_inode(&self, lo: LoId) -> Result<Inode> {
        // Pinned reads: the inode and indirect pages are decoded in
        // place, no page copies.
        Inode::decode(lo, |pid| self.pool.read_pinned(PageId(pid)))
    }

    /// Seeds the published registry with `lo`'s committed page table
    /// when it has never been published since the space opened (e.g. a
    /// file-backed space freshly reopened). A momentary shared lock —
    /// under a throwaway transaction id that holds nothing else, so it
    /// cannot deadlock — excludes in-flight writers while the inode is
    /// read; no epoch bump, since nothing is superseded.
    fn publish_if_absent(&self, lo: LoId) -> Result<()> {
        if self.published.lock().tables.contains_key(&lo.0) {
            return Ok(());
        }
        let tid = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        self.lm.acquire(tid, lo.0, LockMode::Shared)?;
        let seeded = (|| -> Result<()> {
            let inode = self.load_inode(lo)?;
            let mut published = self.published.lock();
            if !published.tables.contains_key(&lo.0) {
                let mut tables = (*published.tables).clone();
                tables.insert(
                    lo.0,
                    Arc::new(LoTable {
                        pages: inode.data_pages.clone(),
                        size: inode.size,
                    }),
                );
                published.tables = Arc::new(tables);
            }
            Ok(())
        })();
        self.lm.release(tid, lo.0);
        seeded
    }

    /// Pops every retired batch no open snapshot can still reference.
    /// Call with the published-state lock held; free the returned pages
    /// *after* releasing it.
    fn reclaimable(published: &mut PublishedState) -> Vec<u32> {
        let min_open = published.open.keys().next().copied().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        while let Some((tag, _)) = published.retired.front() {
            if *tag < min_open {
                out.extend(published.retired.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
        out
    }

    /// Logs `records` as one WAL batch, queued without waiting — the
    /// next sync (a commit's or a checkpoint's) makes it durable — and
    /// installs the metadata images among them in the pool as frames
    /// tagged with the batch's sequence, so none reaches the backend
    /// before its image is durable. Call with `meta` held: sequence
    /// order is then the order the images were built in.
    fn meta_apply(&self, records: Vec<WalRecord>) -> Result<()> {
        let batch: Vec<u8> = records.iter().flat_map(WalRecord::encode).collect();
        let seq = self.group.enqueue(batch)?;
        for r in records {
            if let WalRecord::MetaImage { pid, data } = r {
                self.pool.write_meta(PageId(pid), &data, seq);
            }
        }
        Ok(())
    }

    /// Allocates `n` pages for `txn`, noting them for crash/abort
    /// compensation.
    pub(crate) fn alloc_pages(&self, txn: TxnId, n: usize) -> Result<Vec<u32>> {
        let _g = self.meta.lock();
        let mut header = self.read_header()?;
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            if header.free_head != NO_PAGE {
                let pid = header.free_head;
                let mut buf = crate::page::zeroed_page();
                self.pool.read(PageId(pid), &mut buf)?;
                header.free_head = decode_free_next(&buf)?;
                got.push(pid);
            } else {
                let pid = header.total_pages;
                header.total_pages += 1;
                got.push(pid);
            }
        }
        // The note precedes the header image: a torn batch then leaves
        // at most a note whose pages recovery finds still free.
        self.meta_apply(vec![
            WalRecord::AllocNote {
                txn,
                pages: got.clone(),
            },
            WalRecord::MetaImage {
                pid: 0,
                data: header.encode(),
            },
        ])?;
        if let Some(st) = self.txns.lock().get_mut(&txn.0) {
            st.alloc_pages.extend_from_slice(&got);
            st.owned.extend(got.iter().copied());
        }
        Ok(got)
    }

    /// Returns pages to the free list (system transaction), logging
    /// `trailer` in the same batch after the free-list images.
    fn free_pages(&self, pages: &[u32], trailer: Option<WalRecord>) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let _g = self.meta.lock();
        let mut header = self.read_header()?;
        let mut records: Vec<WalRecord> = Vec::with_capacity(pages.len() + 2);
        for &pid in pages {
            debug_assert!(pid != 0, "cannot free the header page");
            records.push(WalRecord::MetaImage {
                pid,
                data: encode_free_page(header.free_head),
            });
            header.free_head = pid;
        }
        records.push(WalRecord::MetaImage {
            pid: 0,
            data: header.encode(),
        });
        records.extend(trailer);
        self.meta_apply(records)
    }

    fn adjust_lo_count(&self, delta: i64) -> Result<()> {
        let _g = self.meta.lock();
        let mut header = self.read_header()?;
        header.lo_count = (header.lo_count as i64 + delta).max(0) as u32;
        self.meta_apply(vec![WalRecord::MetaImage {
            pid: 0,
            data: header.encode(),
        }])
    }

    fn run_callbacks(&self, txn: TxnId, end: TxnEnd) {
        // Clone nothing: callbacks are invoked under no internal locks.
        let cbs = self.callbacks.lock();
        for cb in cbs.iter() {
            cb(txn, end);
        }
    }

    /// Removes `txn` from the active map while anchoring the checkpoint
    /// low-water mark: between leaving `txns` and finishing its end
    /// protocol the transaction is invisible to the checkpointer's
    /// active scan, yet its log records (redo images and commit record,
    /// or allocation notes awaiting compensation) must not be recycled.
    /// Callers MUST remove the `committing` entry on every exit path.
    fn take_txn_anchored(&self, txn: TxnId) -> Result<TxnState> {
        let mut txns = self.txns.lock();
        let start_seg = txns
            .get(&txn.0)
            .map(|st| st.start_seg)
            .ok_or(SbError::TxnEnded)?;
        self.committing.lock().insert(txn.0, start_seg);
        Ok(txns.remove(&txn.0).expect("present under lock"))
    }

    pub(crate) fn commit_txn(&self, txn: TxnId) -> Result<()> {
        let mut state = self.take_txn_anchored(txn)?;
        // 0. Resolve deferred LO drops into their page sets now, under
        //    the exclusive locks this transaction still holds. The
        //    whole set — inode, indirect chain, data pages — is retired
        //    rather than freed: an open snapshot may still be reading
        //    the data pages. A failure here aborts cleanly.
        let mut all_retired = std::mem::take(&mut state.retired);
        let mut drop_failed = None;
        for lo in &state.pending_drops {
            match self.load_inode(LoId(*lo)) {
                Ok(inode) => all_retired.extend(inode.all_pages(LoId(*lo))),
                Err(e) => {
                    drop_failed = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = drop_failed {
            self.pool.discard_txn(txn);
            self.committing.lock().remove(&txn.0);
            self.lm.release_all(txn);
            IoStats::bump(&self.stats.txn_aborts);
            self.run_callbacks(txn, TxnEnd::Abort);
            return Err(e);
        }
        // 1. Log redo images of every page this transaction dirtied,
        //    a retire note for the pages it superseded, then the commit
        //    record, as one batch riding a shared append + sync. Held
        //    2PL locks serialise conflicting transactions, so queue
        //    order is a valid history, and the batch lands behind the
        //    transaction's own allocation notes. A read-only
        //    transaction (no dirty pages, no logged allocations,
        //    nothing retired) has nothing to redo or compensate and
        //    skips the WAL entirely.
        let dirty = self.pool.dirty_of(txn);
        let read_only = dirty.is_empty() && state.alloc_pages.is_empty() && all_retired.is_empty();
        let logged = if read_only {
            Ok(())
        } else {
            let mut batch = Vec::new();
            for (pid, data) in &dirty {
                batch.extend_from_slice(
                    &WalRecord::PageImage {
                        txn,
                        pid: pid.0,
                        data: crate::page::page_from_slice(&data[..]),
                    }
                    .encode(),
                );
            }
            if !all_retired.is_empty() {
                batch.extend_from_slice(
                    &WalRecord::RetireNote {
                        txn,
                        pages: all_retired.clone(),
                    }
                    .encode(),
                );
            }
            batch.extend_from_slice(&WalRecord::Commit { txn }.encode());
            self.group.commit(self.wal.as_ref(), &self.stats, batch)
        };
        if let Err(e) = logged {
            // The commit record never became durable, so this is an
            // abort: shed the dirty frames and the locks rather than
            // leaking them (the allocated pages are reclaimed by the
            // next recovery, as for any unfinished transaction).
            self.pool.discard_txn(txn);
            self.committing.lock().remove(&txn.0);
            self.lm.release_all(txn);
            IoStats::bump(&self.stats.txn_aborts);
            self.run_callbacks(txn, TxnEnd::Abort);
            return Err(e);
        }
        // The commit record is durable — past the commit point. From
        // here every path must still publish, release locks, and fire
        // callbacks: a failure below is reported but cannot un-commit
        // the transaction (the durable redo images repair the backend
        // on the next recovery), and leaked locks would wedge every
        // later transaction touching the same objects.
        IoStats::bump(&self.stats.txn_commits);
        // 2. The data pages. Group commit is no-force: the frames are
        //    merely relabelled committed-dirty — the checkpointer (or
        //    eviction pressure) writes them later, since the durable
        //    redo images above repair any crash from here. Without
        //    group commit the pages are forced immediately.
        let flush_result = if self.group_commit {
            self.pool.mark_committed(txn);
            Ok(())
        } else {
            self.pool.flush_txn(txn, true)
        };
        // 3. Publish the new page tables atomically (one map swap =
        //    one consistent cut for future snapshots) and queue the
        //    retired pages behind the epoch gate. Pages shared between
        //    the old and new table versions are never in the retired
        //    set, so superseding a published entry frees nothing by
        //    itself.
        // Excluded from any in-flight checkpoint's capture window: once
        // a checkpoint has copied the retired queue into its record, no
        // batch from that copy may reach the free list (and be handed
        // out again) before the record is durable.
        let _retire = self.retire_guard.lock();
        let to_reclaim = {
            let mut published = self.published.lock();
            if !state.pending_publish.is_empty() || !state.pending_drops.is_empty() {
                let mut tables = (*published.tables).clone();
                for (lo, table) in state.pending_publish.drain() {
                    match table {
                        Some(t) => {
                            if tables.get(&lo).is_some_and(|prev| **prev == t) {
                                continue; // unchanged (e.g. an idle exclusive open)
                            }
                            if tables.insert(lo, Arc::new(t)).is_some() {
                                self.page_tables_retired.inc();
                            }
                        }
                        None => {
                            if tables.remove(&lo).is_some() {
                                self.page_tables_retired.inc();
                            }
                        }
                    }
                }
                for lo in &state.pending_drops {
                    if tables.remove(lo).is_some() {
                        self.page_tables_retired.inc();
                    }
                }
                published.tables = Arc::new(tables);
            }
            if !all_retired.is_empty() {
                let tag = published.epoch;
                published.epoch += 1;
                published.retired.push_back((tag, all_retired));
            }
            Self::reclaimable(&mut published)
        };
        // Frames are marked and the retired batch is queued (a
        // checkpoint from here carries it in its record), so the
        // low-water anchor can drop.
        self.committing.lock().remove(&txn.0);
        let reclaim_result = self.free_pages(&to_reclaim, None);
        // Released before callbacks run: a callback may drop a snapshot,
        // whose destructor takes the guard itself.
        drop(_retire);
        let count_result = if state.pending_drops.is_empty() {
            Ok(())
        } else {
            self.adjust_lo_count(-(state.pending_drops.len() as i64))
        };
        // 4. Release locks and notify.
        self.lm.release_all(txn);
        self.run_callbacks(txn, TxnEnd::Commit);
        flush_result.and(reclaim_result).and(count_result)
    }

    pub(crate) fn abort_txn(&self, txn: TxnId) -> Result<()> {
        // Anchored like a commit: until the abort record (or at least
        // the free-list compensation) is logged, recycling the segment
        // holding this transaction's allocation notes would leak its
        // pages if we then crash.
        let state = self.take_txn_anchored(txn)?;
        // Counted up front: a failure while compensating below still
        // ends the transaction as an abort.
        IoStats::bump(&self.stats.txn_aborts);
        // 1. Drop uncommitted frames (no-steal: the backend is clean).
        self.pool.discard_txn(txn);
        // 2./3. Compensate allocations (the pages go back to the free
        //    list) and record the abort so recovery does not
        //    re-compensate — in one batch, so the abort record can
        //    never be durable without the compensation, nor the
        //    compensation (whose pages another transaction may take
        //    next) without the abort record. The batch is queued, not
        //    synced: until a later sync covers it, a crash finds the
        //    transaction unfinished and compensates again. Shadow
        //    paging allocates a fresh page for every copy-on-write
        //    redirect, so this is real free-list work for any aborted
        //    writer — and it can fail on a faulty backend or a poisoned
        //    log. The locks are released either way: a compensation
        //    failure leaks at most free pages (repaired by the next
        //    recovery), while a leaked lock wedges every later
        //    transaction on the same objects. A transaction that
        //    allocated nothing has nothing to compensate or log.
        let compensated = self.free_pages(&state.alloc_pages, Some(WalRecord::Abort { txn }));
        self.committing.lock().remove(&txn.0);
        // 4. Release locks and notify.
        self.lm.release_all(txn);
        self.run_callbacks(txn, TxnEnd::Abort);
        compensated
    }

    /// One fuzzy checkpoint. The ordering is the crash-safety argument:
    ///
    /// 1. capture the low-water mark — the oldest segment any live
    ///    (active or mid-end) transaction, or any WAL batch not yet
    ///    synced, may still need. Transactions that begin or commit
    ///    during the walk either anchored the mark or append into
    ///    segments at or above it, which survive;
    /// 2. flush committed-dirty frames shard by shard (writers on other
    ///    shards proceed — the fuzzy part) and sync the backend. A
    ///    metadata frame whose image is not yet durable is skipped
    ///    (WAL before data): its image is appended at or above the
    ///    mark, by step 3 at the latest. Every redo image below the
    ///    mark is now redundant;
    /// 3. append a checkpoint record carrying the retire backlog still
    ///    pinned by open snapshots, behind every queued batch, and make
    ///    it durable. Only *after* that record is on disk
    /// 4. recycle the segments below the mark, then sweep retired
    ///    batches whose snapshots have drained.
    ///
    /// A failure at any step returns before the later steps run, so a
    /// failed checkpoint never truncates or recycles anything: the
    /// previous checkpoint stays authoritative and the next attempt
    /// retries the whole sequence.
    fn checkpoint_once(&self) -> Result<()> {
        let lwm = {
            // Metadata frames whose batch is not yet synced are skipped
            // by the flush below; their images must stay in the log.
            let floor = self.group.unsynced_floor(self.wal.as_ref());
            let txns = self.txns.lock();
            let committing = self.committing.lock();
            txns.values()
                .map(|st| st.start_seg)
                .chain(committing.values().copied())
                .fold(floor, u64::min)
        };
        self.pool.flush_committed()?;
        self.pool.sync_backend()?;
        // From here to the end of the sweep: no snapshot drop or commit
        // may pop-and-free a retired batch. The record below claims the
        // batches captured here, and a claim is only crash-safe if any
        // later reallocation of those pages logs its `AllocNote` *after*
        // the record (see `retire_guard`).
        let _capture = self.retire_guard.lock();
        // The segments holding the original retire notes may be
        // recycled below; a crash ends every snapshot, so recovery
        // frees these exactly like committed retire notes.
        let pending_retire: Vec<u32> = {
            let published = self.published.lock();
            published
                .retired
                .iter()
                .flat_map(|(_, pages)| pages.iter().copied())
                .collect()
        };
        // The record's group also carries every batch still queued, so
        // the images of frames the flush skipped land at or above the
        // low-water mark and survive the recycling below.
        let record = WalRecord::Checkpoint { pending_retire }.encode();
        self.group.commit(self.wal.as_ref(), &self.stats, record)?;
        let recycled = self.wal.recycle_below(lwm)?;
        self.segments_recycled.add(recycled as u64);
        // Sweep drained retire batches online — previously they were
        // only freed when a snapshot dropped or a commit ran, so a
        // batch whose last snapshot died without reclaiming (e.g. a
        // failed destructor-side free) stayed stranded until reboot.
        let to_reclaim = {
            let mut published = self.published.lock();
            Self::reclaimable(&mut published)
        };
        self.free_pages(&to_reclaim, None)?;
        self.wal_live_bytes.set(self.wal.live_bytes()?);
        Ok(())
    }

    /// Runs one checkpoint, keeping score: success bumps
    /// `sbspace.checkpoints`, failure bumps `sbspace.checkpoint_failures`
    /// and — by the ordering inside [`SpaceInner::checkpoint_once`] —
    /// leaves the previous checkpoint authoritative.
    pub(crate) fn run_checkpoint(&self) -> Result<()> {
        let result = self.checkpoint_once();
        match &result {
            Ok(()) => self.checkpoints.inc(),
            Err(_) => self.checkpoint_failures.inc(),
        }
        result
    }
}

impl Drop for SpaceInner {
    fn drop(&mut self) {
        *self.ckpt_stop.0.lock() = true;
        self.ckpt_stop.1.notify_all();
        if let Some(handle) = self.ckpt_thread.get_mut().take() {
            // The checkpointer's own weak upgrade can briefly make it
            // the last owner, in which case this drop runs *on* that
            // thread — and a thread cannot join itself. It exits on its
            // next loop iteration instead.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.inner
            .txns
            .lock()
            .get(&self.id.0)
            .map(|s| s.iso)
            .unwrap_or_default()
    }

    fn check_live(&self) -> Result<()> {
        if self.done.load(Ordering::SeqCst) {
            return Err(SbError::TxnEnded);
        }
        Ok(())
    }

    /// Commits: redo images to the log, force, apply deferred drops,
    /// release locks, fire callbacks.
    pub fn commit(self) -> Result<()> {
        self.check_live()?;
        self.done.store(true, Ordering::SeqCst);
        self.inner.commit_txn(self.id)
    }

    /// Aborts: uncommitted writes vanish, allocations are compensated.
    pub fn abort(self) -> Result<()> {
        self.check_live()?;
        self.done.store(true, Ordering::SeqCst);
        self.inner.abort_txn(self.id)
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.done.swap(true, Ordering::SeqCst) {
            let _ = self.inner.abort_txn(self.id);
        }
    }
}

impl LoHandle {
    /// The object's id.
    pub fn id(&self) -> LoId {
        self.lo
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u32 {
        self.inode.data_pages.len() as u32
    }

    /// Byte size of the object.
    pub fn len(&self) -> u64 {
        self.inode.size
    }

    /// True when the object holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inode.size == 0
    }

    /// True when the handle was opened for writing.
    pub fn is_writable(&self) -> bool {
        self.mode == LockMode::Exclusive
    }

    fn check_writable(&self) -> Result<()> {
        if self.mode != LockMode::Exclusive {
            return Err(SbError::Usage(format!("{} opened read-only", self.lo)));
        }
        Ok(())
    }

    fn phys(&self, logical: u32) -> Result<u32> {
        self.inode
            .data_pages
            .get(logical as usize)
            .copied()
            .ok_or_else(|| SbError::NotFound(format!("{}: page {logical}", self.lo)))
    }

    /// Shadow paging: returns a physical page this transaction may
    /// overwrite. A page the transaction allocated itself is written in
    /// place; a committed page is superseded instead — a fresh page
    /// takes its page-table slot and the old one is retired, freed at
    /// commit once no snapshot can still be reading it. Callers always
    /// supply the full page image, so the old contents are never copied
    /// forward here.
    fn redirect(&mut self, logical: u32) -> Result<u32> {
        let pid = self.phys(logical)?;
        if self
            .inner
            .txns
            .lock()
            .get(&self.txn.0)
            .is_some_and(|st| st.owned.contains(&pid))
        {
            return Ok(pid);
        }
        let fresh = self.inner.alloc_pages(self.txn, 1)?[0];
        self.inode.data_pages[logical as usize] = fresh;
        self.inode_dirty = true;
        self.retire(vec![pid]);
        Ok(fresh)
    }

    /// Queues committed pages this transaction superseded for the
    /// epoch-gated free at commit (forgotten on abort — the committed
    /// versions remain live).
    fn retire(&self, pages: Vec<u32>) {
        if pages.is_empty() {
            return;
        }
        if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
            st.retired.extend(pages);
        }
    }

    /// Reads logical page `logical` of the object into a fresh buffer.
    /// Prefer [`LoHandle::read_page_pinned`] on hot paths — it avoids
    /// the page copy.
    pub fn read_page(&self, logical: u32) -> Result<PageBuf> {
        let pid = self.phys(logical)?;
        let mut buf = crate::page::zeroed_page();
        self.inner.pool.read(PageId(pid), &mut buf)?;
        Ok(buf)
    }

    /// Pins logical page `logical` and returns a zero-copy view of its
    /// bytes. The underlying frame stays resident until the guard drops;
    /// concurrent writers see a private copy (copy-on-write), so the
    /// guard is a stable snapshot.
    pub fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        let pid = self.phys(logical)?;
        self.inner.pool.read_pinned(PageId(pid))
    }

    /// Announces logical pages an upcoming scan will read, letting the
    /// pool's prefetch workers fault them in while the caller computes.
    /// Advisory: out-of-range pages are skipped, and the call is a
    /// no-op when the space runs without prefetch workers.
    pub fn prefetch(&self, logical: &[u32]) {
        let pids: Vec<PageId> = logical
            .iter()
            .filter_map(|&l| self.inode.data_pages.get(l as usize).map(|&p| PageId(p)))
            .collect();
        if !pids.is_empty() {
            self.inner.pool.prefetch(&pids);
        }
    }

    /// Writes logical page `logical` (buffered until commit).
    ///
    /// The page-level API does not touch the byte size — an index that
    /// manages whole pages reports its extent via [`LoHandle::page_count`].
    pub fn write_page(&mut self, logical: u32, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.check_writable()?;
        let pid = self.redirect(logical)?;
        self.inner.pool.write_txn(self.txn, PageId(pid), data);
        Ok(())
    }

    /// Appends a page, returning its logical number.
    pub fn append_page(&mut self, data: &[u8; PAGE_SIZE]) -> Result<u32> {
        self.check_writable()?;
        let pid = self.inner.alloc_pages(self.txn, 1)?[0];
        self.inode.data_pages.push(pid);
        let logical = self.inode.data_pages.len() as u32 - 1;
        self.inode_dirty = true;
        self.inner.pool.write_txn(self.txn, PageId(pid), data);
        Ok(logical)
    }

    /// Drops pages from the tail. Their storage is retired, not freed:
    /// reclamation happens after commit, once no snapshot can still
    /// reference them (which also keeps an abort from clobbering the
    /// committed page table — nothing durable moves before the commit
    /// record).
    pub fn truncate_pages(&mut self, keep: u32) -> Result<()> {
        self.check_writable()?;
        if (keep as usize) >= self.inode.data_pages.len() {
            return Ok(());
        }
        let dropped: Vec<u32> = self.inode.data_pages.split_off(keep as usize);
        self.inode.size = self.inode.size.min(keep as u64 * PAGE_SIZE as u64);
        self.inode_dirty = true;
        self.retire(dropped);
        Ok(())
    }

    /// Reads `out.len()` bytes at byte `offset`; short reads past the
    /// end are zero-filled and the valid prefix length is returned.
    pub fn read_at(&self, offset: u64, out: &mut [u8]) -> Result<usize> {
        out.fill(0);
        if offset >= self.inode.size {
            return Ok(0);
        }
        let valid = ((self.inode.size - offset) as usize).min(out.len());
        let mut done = 0usize;
        while done < valid {
            let pos = offset + done as u64;
            let page = (pos / PAGE_SIZE as u64) as u32;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(valid - done);
            let buf = self.read_page(page)?;
            out[done..done + n].copy_from_slice(&buf[in_page..in_page + n]);
            done += n;
        }
        Ok(valid)
    }

    /// Writes `data` at byte `offset`, extending the object as needed.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        let end = offset + data.len() as u64;
        let pages_needed = end.div_ceil(PAGE_SIZE as u64) as u32;
        while self.page_count() < pages_needed {
            self.append_page(&crate::page::zeroed_page())?;
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page = (pos / PAGE_SIZE as u64) as u32;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let mut buf = self.read_page(page)?;
            buf[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            self.write_page(page, &buf)?;
            done += n;
        }
        if end > self.inode.size {
            self.inode.size = end;
            self.inode_dirty = true;
        }
        Ok(())
    }

    /// Flushes the cached inode (page-table and size changes) into the
    /// transaction's buffered writes.
    pub fn flush(&mut self) -> Result<()> {
        if !self.inode_dirty {
            return Ok(());
        }
        // Size the indirect chain to the page table.
        let needed = Inode::indirect_needed(self.inode.data_pages.len());
        while self.inode.indirect_pids.len() < needed {
            let pid = self.inner.alloc_pages(self.txn, 1)?[0];
            self.inode.indirect_pids.push(pid);
        }
        if self.inode.indirect_pids.len() > needed {
            let extra = self.inode.indirect_pids.split_off(needed);
            self.retire(extra);
        }
        let images = self.inode.encode(self.lo);
        for (pid, data) in images {
            self.inner.pool.write_txn(self.txn, PageId(pid), &data);
        }
        self.inode_dirty = false;
        Ok(())
    }

    /// Closes the handle: flushes the inode and, for a shared lock under
    /// `ReadCommitted`, releases the lock early (the paper's LO-close
    /// semantics).
    pub fn close(mut self) -> Result<()> {
        self.do_close()
    }

    fn do_close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        self.flush()?;
        if self.mode == LockMode::Exclusive {
            // Stage the (possibly rewritten) page table for the atomic
            // publish at commit; the latest close of an LO wins. Staged
            // state dies with the transaction on abort.
            if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
                st.pending_publish.insert(
                    self.lo.0,
                    Some(LoTable {
                        pages: self.inode.data_pages.clone(),
                        size: self.inode.size,
                    }),
                );
            }
        }
        let iso = self
            .inner
            .txns
            .lock()
            .get(&self.txn.0)
            .map(|s| s.iso)
            .unwrap_or_default();
        if self.mode == LockMode::Shared && iso == IsolationLevel::ReadCommitted {
            self.inner.lm.release(self.txn, self.lo.0);
            if let Some(st) = self.inner.txns.lock().get_mut(&self.txn.0) {
                st.locks.remove(&self.lo.0);
            }
        }
        Ok(())
    }
}

impl Drop for LoHandle {
    fn drop(&mut self) {
        let _ = self.do_close();
    }
}

/// A `Send + Sync` read-only view of a large object: the page table is
/// snapshotted at creation and every read goes through the shared
/// buffer pool's pinned path, so any number of threads can traverse the
/// same object concurrently without a lock-manager interaction per
/// read.
///
/// The view is as stable as whatever pins the page table it was built
/// from: a reader taken from a [`LoHandle`] is protected by that
/// handle's lock (keep the handle open while the reader lives); a
/// reader taken from a [`SpaceSnapshot`] is protected by the snapshot's
/// epoch registration — shadow paging means committed pages are never
/// overwritten in place, and the epoch gate keeps them off the free
/// list (keep the snapshot alive while the reader lives). Readers hand
/// out [`PageGuard`]s, which must all be dropped before the owning
/// space shuts down.
pub struct LoReader {
    inner: Arc<SpaceInner>,
    lo: LoId,
    pages: Vec<u32>,
}

impl LoReader {
    /// The object's id.
    pub fn id(&self) -> LoId {
        self.lo
    }

    /// Number of data pages in the snapshot.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn phys(&self, logical: u32) -> Result<u32> {
        self.pages
            .get(logical as usize)
            .copied()
            .ok_or_else(|| SbError::NotFound(format!("{}: page {logical}", self.lo)))
    }

    /// Reads logical page `logical` into a fresh buffer, exactly like
    /// [`LoHandle::read_page`].
    pub fn read_page(&self, logical: u32) -> Result<PageBuf> {
        let pid = self.phys(logical)?;
        let mut buf = crate::page::zeroed_page();
        self.inner.pool.read(PageId(pid), &mut buf)?;
        Ok(buf)
    }

    /// Pins logical page `logical` and returns a zero-copy view of its
    /// bytes, exactly like [`LoHandle::read_page_pinned`].
    pub fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        let pid = self.phys(logical)?;
        self.inner.pool.read_pinned(PageId(pid))
    }

    /// Announces logical pages an upcoming scan will read, exactly like
    /// [`LoHandle::prefetch`]: advisory, skips out-of-range pages,
    /// no-op without prefetch workers.
    pub fn prefetch(&self, logical: &[u32]) {
        let pids: Vec<PageId> = logical
            .iter()
            .filter_map(|&l| self.pages.get(l as usize).map(|&p| PageId(p)))
            .collect();
        if !pids.is_empty() {
            self.inner.pool.prefetch(&pids);
        }
    }
}

/// Page-granular read access shared by the locked and the snapshot
/// paths: code generic over `PageSource` (the heap scanner, the tree
/// cursors) runs identically over a [`LoHandle`] — 2PL, sees the
/// transaction's own writes — and over a [`LoReader`] — lock-free, a
/// frozen committed view.
pub trait PageSource {
    /// Number of data pages visible through this source.
    fn page_count(&self) -> u32;
    /// Reads logical page `logical` into a fresh buffer.
    fn read_page(&self, logical: u32) -> Result<PageBuf>;
    /// Pins logical page `logical` for zero-copy access.
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard>;
    /// Announces logical pages an upcoming scan will read. Advisory —
    /// the default does nothing, so sources without a prefetcher (or
    /// tests with trivial sources) need no code.
    fn prefetch(&self, _logical: &[u32]) {}
}

impl PageSource for LoHandle {
    fn page_count(&self) -> u32 {
        LoHandle::page_count(self)
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        LoHandle::read_page(self, logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        LoHandle::read_page_pinned(self, logical)
    }
    fn prefetch(&self, logical: &[u32]) {
        LoHandle::prefetch(self, logical);
    }
}

impl PageSource for LoReader {
    fn page_count(&self) -> u32 {
        LoReader::page_count(self)
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        LoReader::read_page(self, logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        LoReader::read_page_pinned(self, logical)
    }
    fn prefetch(&self, logical: &[u32]) {
        LoReader::prefetch(self, logical);
    }
}

impl<P: PageSource + ?Sized> PageSource for &P {
    fn page_count(&self) -> u32 {
        (**self).page_count()
    }
    fn read_page(&self, logical: u32) -> Result<PageBuf> {
        (**self).read_page(logical)
    }
    fn read_page_pinned(&self, logical: u32) -> Result<PageGuard> {
        (**self).read_page_pinned(logical)
    }
    fn prefetch(&self, logical: &[u32]) {
        (**self).prefetch(logical)
    }
}

impl LoHandle {
    /// Snapshots this handle into a [`LoReader`] that worker threads can
    /// share. The handle's lock protects the reader: keep the handle
    /// open for as long as any reader (or guard it produced) is live.
    pub fn reader(&self) -> LoReader {
        LoReader {
            inner: self.inner.clone(),
            lo: self.lo,
            pages: self.inode.data_pages.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Sbspace {
        Sbspace::mem(SbspaceOptions {
            pool_pages: 64,
            lock_timeout: Duration::from_millis(200),
            ..Default::default()
        })
    }

    #[test]
    fn create_write_read_roundtrip() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"hello large object").unwrap();
        h.write_at(10_000, b"far away").unwrap();
        let mut buf = [0u8; 18];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello large object");
        let mut far = [0u8; 8];
        h.read_at(10_000, &mut far).unwrap();
        assert_eq!(&far, b"far away");
        h.close().unwrap();
        txn.commit().unwrap();

        // Visible to a later transaction.
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        let h2 = sb.open_lo(&txn2, lo, LockMode::Shared).unwrap();
        let mut buf2 = [0u8; 18];
        h2.read_at(0, &mut buf2).unwrap();
        assert_eq!(&buf2, b"hello large object");
        assert_eq!(h2.len(), 10_008);
    }

    #[test]
    fn abort_undoes_everything() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        {
            let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, b"doomed").unwrap();
        }
        txn.abort().unwrap();
        // The object does not exist for later transactions.
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&txn2, lo, LockMode::Shared).is_err());
    }

    #[test]
    fn aborted_pages_are_reused() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        txn.abort().unwrap();
        let txn2 = sb.begin(IsolationLevel::ReadCommitted);
        let lo2 = sb.create_lo(&txn2).unwrap();
        // The freed inode page comes straight back off the free list.
        assert_eq!(lo2, lo);
        txn2.commit().unwrap();
    }

    #[test]
    fn drop_lo_deferred_to_commit() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"bytes").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        sb.drop_lo(&t2, lo).unwrap();
        t2.abort().unwrap();
        // Abort cancelled the drop.
        let t3 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&t3, lo, LockMode::Shared).is_ok());
        sb.drop_lo(&t3, lo).unwrap();
        t3.commit().unwrap();
        let t4 = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&t4, lo, LockMode::Shared).is_err());
    }

    #[test]
    fn page_level_api() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let p0 = crate::page::page_from_slice(b"node zero");
        let p1 = crate::page::page_from_slice(b"node one");
        assert_eq!(h.append_page(&p0).unwrap(), 0);
        assert_eq!(h.append_page(&p1).unwrap(), 1);
        assert_eq!(&h.read_page(1).unwrap()[..8], b"node one");
        let p1b = crate::page::page_from_slice(b"NODE ONE");
        h.write_page(1, &p1b).unwrap();
        assert_eq!(&h.read_page(1).unwrap()[..8], b"NODE ONE");
        assert!(h.read_page(2).is_err());
        h.truncate_pages(1).unwrap();
        assert_eq!(h.page_count(), 1);
        assert!(h.read_page(1).is_err());
        h.close().unwrap();
        txn.commit().unwrap();
        sb.checkpoint().unwrap();
    }

    #[test]
    fn writes_need_exclusive_handle() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        {
            let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, b"x").unwrap();
        }
        txn.commit().unwrap();
        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t2, lo, LockMode::Shared).unwrap();
        assert!(matches!(h.write_at(0, b"y"), Err(SbError::Usage(_))));
    }

    #[test]
    fn lo_level_locking_blocks_writers() {
        let sb = space();
        let setup = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&setup).unwrap();
        setup.commit().unwrap();

        let reader = sb.begin(IsolationLevel::RepeatableRead);
        let _h = sb.open_lo(&reader, lo, LockMode::Shared).unwrap();
        let writer = sb.begin(IsolationLevel::ReadCommitted);
        // Under repeatable read the shared lock is held even though we
        // could close the handle — so the writer times out.
        let err = match sb.open_lo(&writer, lo, LockMode::Exclusive) {
            Err(e) => e,
            Ok(_) => panic!("writer should have blocked"),
        };
        assert!(matches!(err, SbError::LockTimeout(_)), "{err}");
    }

    #[test]
    fn read_committed_releases_shared_lock_on_close() {
        let sb = space();
        let setup = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&setup).unwrap();
        setup.commit().unwrap();

        let reader = sb.begin(IsolationLevel::ReadCommitted);
        let h = sb.open_lo(&reader, lo, LockMode::Shared).unwrap();
        h.close().unwrap();
        let writer = sb.begin(IsolationLevel::ReadCommitted);
        assert!(sb.open_lo(&writer, lo, LockMode::Exclusive).is_ok());
    }

    #[test]
    fn txn_end_callbacks_fire() {
        let sb = space();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sb.on_txn_end(move |id, end| log2.lock().push((id, end)));
        let t1 = sb.begin(IsolationLevel::ReadCommitted);
        let id1 = t1.id();
        t1.commit().unwrap();
        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let id2 = t2.id();
        drop(t2); // implicit abort
        let got = log.lock().clone();
        assert_eq!(got, vec![(id1, TxnEnd::Commit), (id2, TxnEnd::Abort)]);
    }

    #[test]
    fn large_object_spanning_indirect_pages() {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            lock_timeout: Duration::from_millis(200),
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let n = (crate::lo::DIRECT_CAP + 40) as u32;
        for i in 0..n {
            let page = crate::page::page_from_slice(&i.to_le_bytes());
            h.append_page(&page).unwrap();
        }
        h.close().unwrap();
        txn.commit().unwrap();

        let t2 = sb.begin(IsolationLevel::ReadCommitted);
        let h2 = sb.open_lo(&t2, lo, LockMode::Shared).unwrap();
        assert_eq!(h2.page_count(), n);
        for i in (0..n).step_by(97) {
            let page = h2.read_page(i).unwrap();
            assert_eq!(&page[..4], &i.to_le_bytes());
        }
        sb.verify_lo(&t2, lo).unwrap();
    }

    #[test]
    fn snapshot_sees_pre_write_state_and_reclaims_on_drop() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"version one").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let snap = sb.snapshot_for(&[lo]).unwrap();
        assert_eq!(sb.snapshots_open(), 1);
        let reader = snap.reader(lo).unwrap();
        assert_eq!(&reader.read_page(0).unwrap()[..11], b"version one");

        // A writer overwrites and commits; the snapshot never blocks it.
        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.write_at(0, b"version two").unwrap();
        hw.close().unwrap();
        w.commit().unwrap();

        // The snapshot still reads the superseded page...
        assert_eq!(&reader.read_page(0).unwrap()[..11], b"version one");
        // ...while a fresh snapshot sees the committed overwrite.
        let snap2 = sb.snapshot_for(&[lo]).unwrap();
        let r2 = snap2.reader(lo).unwrap();
        assert_eq!(&r2.read_page(0).unwrap()[..11], b"version two");
        drop(r2);
        drop(snap2);

        let free_before = sb.space_info().unwrap().free_pages;
        drop(reader);
        drop(snap);
        assert_eq!(sb.snapshots_open(), 0);
        // Dropping the last snapshot of the old epoch frees the retired
        // page.
        assert!(sb.space_info().unwrap().free_pages > free_before);
    }

    #[test]
    fn snapshot_taken_while_writer_holds_exclusive_lock() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"committed").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();

        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.write_at(0, b"uncommitt").unwrap();
        // With the writer's exclusive lock still held, the snapshot
        // completes immediately (no LO-level lock on this path — a
        // blocked acquire would trip the 200ms lock timeout) and sees
        // only committed state.
        let snap = sb.snapshot_for(&[lo]).unwrap();
        let r = snap.reader(lo).unwrap();
        assert_eq!(&r.read_page(0).unwrap()[..9], b"committed");
        drop(r);
        drop(snap);
        hw.close().unwrap();
        w.abort().unwrap();
        // The abort freed only the copied-out pages; committed data is
        // intact.
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let hr = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 9];
        hr.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"committed");
    }

    #[test]
    fn truncated_pages_stay_readable_under_snapshot() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        for i in 0..3u8 {
            h.append_page(&crate::page::page_from_slice(&[b'a' + i; 8]))
                .unwrap();
        }
        h.close().unwrap();
        txn.commit().unwrap();

        let snap = sb.snapshot_for(&[lo]).unwrap();
        let w = sb.begin(IsolationLevel::ReadCommitted);
        let mut hw = sb.open_lo(&w, lo, LockMode::Exclusive).unwrap();
        hw.truncate_pages(1).unwrap();
        hw.close().unwrap();
        w.commit().unwrap();

        // The snapshot still spans all three pages; the current view is
        // truncated.
        let reader = snap.reader(lo).unwrap();
        assert_eq!(reader.page_count(), 3);
        assert_eq!(&reader.read_page(2).unwrap()[..8], &[b'c'; 8]);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let hr = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        assert_eq!(hr.page_count(), 1);
    }

    #[test]
    fn drop_page_cache_writes_metadata_back_and_refuses_uncommitted_frames() {
        let sb = space();
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"cached").unwrap();
        h.close().unwrap();
        // Uncommitted frames cannot be written back.
        assert!(matches!(sb.drop_page_cache(), Err(SbError::Usage(_))));
        txn.commit().unwrap();
        // An aborted allocation leaves free-list images queued in the
        // WAL and dirty in the pool, not yet on the backend.
        let doomed = sb.begin(IsolationLevel::ReadCommitted);
        sb.create_lo(&doomed).unwrap();
        doomed.abort().unwrap();
        let info = sb.space_info().unwrap();
        sb.drop_page_cache().unwrap();
        let faults = sb.stats().snapshot().physical_reads;
        assert_eq!(sb.space_info().unwrap(), info);
        // The metadata came back from the backend, not from frames the
        // drop kept.
        assert!(sb.stats().snapshot().physical_reads > faults);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let hr = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 6];
        hr.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"cached");
    }
}
