//! The buffer pool: sharded page caching with clock eviction, pinned
//! zero-copy reads, and no-steal transactional dirtying.
//!
//! The pool is split into `N` lock-striped shards, keyed by
//! `page_id % N`, so readers and writers touching different pages
//! contend only when their pages hash to the same shard. Each shard
//! runs a clock (second-chance) eviction policy: frames carry a
//! reference bit that a sweep clears before a frame becomes a victim,
//! replacing the previous O(n) LRU scan with an amortised O(1) hand
//! advance.
//!
//! Physical reads never happen under a shard lock. A miss registers the
//! page in the shard's in-flight table, drops the lock, reads from the
//! backend, and re-locks to install the frame — so a slow cold read of
//! page A cannot delay a hit on page B in the same shard, and
//! concurrent faulters of the *same* page wait on the first faulter's
//! read instead of duplicating it ([`IoStats::inflight_waits`]). A
//! failed read clears the in-flight entry and surfaces the error to its
//! caller only; waiters retry and fault for themselves, so each caller
//! sees its own error exactly once and the pool is never poisoned.
//!
//! An optional prefetcher (a bounded queue drained by a small
//! worker pool) lets scans announce pages ahead of demand:
//! [`BufferPool::prefetch`] enqueues, workers claim the pages through
//! the same in-flight table and read them in one vectored
//! [`Backend::read_pages`] call. Prefetched frames enter the clock
//! un-referenced and flagged untouched, so they lose eviction to
//! re-referenced demand pages; a demand hit on one counts
//! `prefetch_hits`, eviction before first touch counts
//! `prefetch_wasted`, and a failed prefetch read is silent (the demand
//! read retries).
//!
//! Frames dirtied by a transaction stay in the pool until that
//! transaction commits (force-at-commit) or aborts (frames discarded) —
//! the no-steal policy that makes the redo-only WAL sound. Metadata
//! pages (the header, free-list links) are written into the pool as
//! committed-dirty frames tagged with the WAL group sequence of their
//! logged image; such a frame reaches the backend only once the group
//! committer's durable sequence covers its tag (WAL before data).
//! Uncommitted-dirty frames, committed-dirty frames whose image is not
//! yet durable, and pinned frames are never evicted; when a full clock
//! sweep finds no victim the shard temporarily exceeds its capacity
//! (counted in [`IoStats::dirty_overflows`]) rather than stealing.
//! Commit and checkpoint flushes batch each shard's dirty pages, sorted
//! by page id, through [`Backend::write_pages`] so contiguous runs
//! coalesce into single backend calls ([`IoStats::write_runs`],
//! [`IoStats::coalesced_writes`]).
//!
//! Page data lives behind `Arc<[u8; PAGE_SIZE]>`. [`BufferPool::read_pinned`]
//! clones that `Arc` into a [`PageGuard`] — no page copy — and pins the
//! frame against eviction until the guard drops. Writes go through
//! `Arc::make_mut`, so a write to a pinned page leaves the guard's
//! snapshot intact (copy-on-write) instead of mutating under a reader.

use crate::backend::Backend;
use crate::page::{zeroed_page, PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use crate::txn::TxnId;
use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, immutable-unless-sole-owner page bytes.
type PageArc = Arc<[u8; PAGE_SIZE]>;

/// Pages a prefetch worker claims from the queue per backend call.
const PREFETCH_BATCH: usize = 16;

struct Frame {
    data: PageArc,
    /// `Some(txn)` when the frame holds uncommitted writes of `txn`.
    dirty_owner: Option<TxnId>,
    /// The frame holds committed bytes newer than the backend's copy:
    /// the owning transaction committed no-force (its redo images are
    /// durable in the WAL) and the data write is deferred to the
    /// checkpointer — or to eviction, which may write-then-drop such a
    /// frame without a sync. Mutually exclusive with `dirty_owner`.
    committed_dirty: bool,
    /// WAL group sequence of the last metadata image written into the
    /// frame: the frame may be written back only once the durable
    /// sequence reaches it. `0` (data frames) means no constraint.
    wal_seq: u64,
    /// Clock reference bit: set on access, cleared by the sweep.
    referenced: bool,
    /// Installed by a prefetch worker and not yet demanded. Cleared by
    /// the first demand access (read counts `prefetch_hits`, write just
    /// clears); still set at eviction counts `prefetch_wasted`.
    prefetched_untouched: bool,
    /// Outstanding [`PageGuard`]s on this frame (shared with them so a
    /// guard can unpin without re-locking the shard).
    pins: Arc<AtomicU64>,
}

impl Frame {
    /// A clean, unreferenced frame holding `data`.
    fn clean(data: PageArc) -> Frame {
        Frame {
            data,
            dirty_owner: None,
            committed_dirty: false,
            wal_seq: 0,
            // Clear on insertion: the bit means "hit since faulted in",
            // so one-touch pages lose to re-referenced ones.
            referenced: false,
            prefetched_untouched: false,
            pins: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// One in-progress physical read, shared between the faulter and any
/// thread that missed on the same page while the read was in flight.
struct Inflight {
    state: Mutex<InflightSlot>,
    cv: Condvar,
}

enum InflightSlot {
    Pending,
    /// `Some(bytes)` — read succeeded; copying waiters may use the
    /// bytes directly even if the frame was already evicted.
    /// `None` — read failed or was invalidated; waiters re-fault so
    /// each caller surfaces its own error exactly once.
    Done(Option<PageArc>),
}

impl Inflight {
    fn new() -> Inflight {
        Inflight {
            state: Mutex::new(InflightSlot::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes the outcome and wakes every waiter.
    fn finish(&self, data: Option<PageArc>) {
        *self.state.lock() = InflightSlot::Done(data);
        self.cv.notify_all();
    }

    /// Blocks until the faulter publishes, then returns its outcome.
    fn wait(&self) -> Option<PageArc> {
        let mut st = self.state.lock();
        while matches!(*st, InflightSlot::Pending) {
            self.cv.wait(&mut st);
        }
        match &*st {
            InflightSlot::Done(d) => d.clone(),
            InflightSlot::Pending => unreachable!("loop exits only on Done"),
        }
    }
}

struct Shard {
    frames: HashMap<u32, Frame>,
    /// Clock ring of resident page ids; `hand` is the sweep position.
    clock: Vec<u32>,
    hand: usize,
    /// Pages whose physical read is in progress with the lock dropped.
    inflight: HashMap<u32, Arc<Inflight>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            frames: HashMap::new(),
            clock: Vec::new(),
            hand: 0,
            inflight: HashMap::new(),
        }
    }
}

/// A pinned, zero-copy view of one page.
///
/// Holding a guard keeps its frame in the pool (eviction skips pinned
/// frames) and keeps this snapshot of the bytes alive even if a writer
/// later replaces the frame's contents (copy-on-write). The pool
/// asserts on drop that no guard outlives it.
pub struct PageGuard {
    data: PageArc,
    frame_pins: Arc<AtomicU64>,
    /// The owning shard's pin total — striped so guards on different
    /// shards never contend on one pool-wide counter.
    shard_pins: Arc<AtomicU64>,
}

impl Deref for PageGuard {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame_pins.fetch_sub(1, Ordering::Release);
        self.shard_pins.fetch_sub(1, Ordering::Release);
    }
}

/// What [`PoolInner::acquire`] produced for the caller.
enum Acquired {
    Copy(PageArc),
    Pinned(PageGuard),
}

/// Counts maximal contiguous ascending runs in a sorted id list — the
/// number of backend calls a coalescing backend needs for the batch.
fn run_count(pids: &[u32]) -> usize {
    let mut runs = 0;
    let mut i = 0;
    while i < pids.len() {
        runs += 1;
        let mut j = i + 1;
        while j < pids.len() && pids[j] == pids[j - 1].wrapping_add(1) {
            j += 1;
        }
        i = j;
    }
    runs
}

/// The shard array and everything the read/write paths touch. Shared
/// (`Arc`) between the pool handle and the prefetch workers.
struct PoolInner {
    backend: Box<dyn Backend>,
    shards: Vec<Mutex<Shard>>,
    /// Per-shard frame budget.
    shard_capacity: usize,
    stats: Arc<IoStats>,
    /// Per-shard counts of live [`PageGuard`]s (striped to keep guard
    /// pin/unpin off a shared cache line).
    shard_pins: Vec<Arc<AtomicU64>>,
    /// Bumped by [`PoolInner::invalidate`]. An unlocked fault snapshots
    /// this before reading and discards its bytes if the epoch moved —
    /// otherwise a read racing recovery replay could install pages that
    /// predate the out-of-band backend change.
    invalidations: AtomicU64,
    /// The WAL group committer's durable sequence: a metadata frame
    /// tagged above it must not reach the backend.
    wal_durable: Arc<AtomicU64>,
}

impl PoolInner {
    fn shard_idx(&self, pid: PageId) -> usize {
        pid.0 as usize % self.shards.len()
    }

    fn outstanding_pins(&self) -> u64 {
        self.shard_pins
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .sum()
    }

    /// Pins `f` and builds its guard (caller holds shard `idx`'s lock).
    fn pin_frame(&self, idx: usize, f: &Frame) -> PageGuard {
        f.pins.fetch_add(1, Ordering::AcqRel);
        self.shard_pins[idx].fetch_add(1, Ordering::AcqRel);
        PageGuard {
            data: Arc::clone(&f.data),
            frame_pins: Arc::clone(&f.pins),
            shard_pins: Arc::clone(&self.shard_pins[idx]),
        }
    }

    /// The one physical read of the fault path: a single allocation,
    /// read straight into the frame's refcounted buffer.
    fn fault_read(&self, pid: PageId) -> Result<PageArc> {
        IoStats::bump(&self.stats.physical_reads);
        let mut data: PageArc = Arc::new([0u8; PAGE_SIZE]);
        let buf = Arc::get_mut(&mut data).expect("freshly allocated, uniquely owned");
        self.backend.read_page(pid, buf)?;
        Ok(data)
    }

    /// The demand-read protocol: hit under the lock, or wait on another
    /// thread's in-flight fault, or fault with the lock dropped and
    /// re-lock to install. Never performs backend I/O under a shard
    /// lock.
    fn acquire(&self, pid: PageId, pin: bool) -> Result<Acquired> {
        let idx = self.shard_idx(pid);
        loop {
            let mut shard = self.shards[idx].lock();
            if let Some(f) = shard.frames.get_mut(&pid.0) {
                f.referenced = true;
                if f.prefetched_untouched {
                    f.prefetched_untouched = false;
                    IoStats::bump(&self.stats.prefetch_hits);
                }
                return Ok(if pin {
                    Acquired::Pinned(self.pin_frame(idx, f))
                } else {
                    Acquired::Copy(Arc::clone(&f.data))
                });
            }
            if let Some(inflight) = shard.inflight.get(&pid.0).map(Arc::clone) {
                drop(shard);
                IoStats::bump(&self.stats.inflight_waits);
                match inflight.wait() {
                    // A copying read can use the faulter's bytes even if
                    // the frame was already evicted again.
                    Some(data) if !pin => return Ok(Acquired::Copy(data)),
                    // Pinned reads re-loop to pin the resident frame;
                    // a failed fault re-loops to fault for itself.
                    _ => continue,
                }
            }
            // We are the faulter: claim the page, then read unlocked.
            let inflight = Arc::new(Inflight::new());
            shard.inflight.insert(pid.0, Arc::clone(&inflight));
            let epoch = self.invalidations.load(Ordering::Acquire);
            drop(shard);
            let read = self.fault_read(pid);
            let mut shard = self.shards[idx].lock();
            shard.inflight.remove(&pid.0);
            let data = match read {
                Ok(data) => data,
                Err(e) => {
                    drop(shard);
                    inflight.finish(None);
                    return Err(e);
                }
            };
            if let Some(f) = shard.frames.get_mut(&pid.0) {
                // A writer installed this page while we read; its frame
                // is newer than our bytes, so serve (and publish) it.
                f.referenced = true;
                let published = Arc::clone(&f.data);
                let out = if pin {
                    Acquired::Pinned(self.pin_frame(idx, f))
                } else {
                    Acquired::Copy(Arc::clone(&f.data))
                };
                drop(shard);
                inflight.finish(Some(published));
                return Ok(out);
            }
            if self.invalidations.load(Ordering::Acquire) != epoch {
                // The cache was invalidated while we read: our bytes may
                // predate the backend change. Discard and retry.
                drop(shard);
                inflight.finish(None);
                continue;
            }
            shard.frames.insert(pid.0, Frame::clean(Arc::clone(&data)));
            shard.clock.push(pid.0);
            let out = if pin {
                let f = shard.frames.get(&pid.0).expect("just inserted");
                Acquired::Pinned(self.pin_frame(idx, f))
            } else {
                Acquired::Copy(Arc::clone(&data))
            };
            self.evict_to_capacity(&mut shard);
            drop(shard);
            inflight.finish(Some(data));
            return Ok(out);
        }
    }

    /// Prefetch-worker fault: claim every page of `pids` that is neither
    /// resident nor already in flight, read them in one vectored call,
    /// and install the frames flagged untouched. Errors are swallowed —
    /// the claims are cleared so demand reads retry and surface the
    /// error themselves.
    fn prefetch_fault(&self, pids: &[PageId]) {
        let mut sorted: Vec<PageId> = pids.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut claimed: Vec<(PageId, Arc<Inflight>)> = Vec::new();
        for pid in sorted {
            let mut shard = self.shards[self.shard_idx(pid)].lock();
            if shard.frames.contains_key(&pid.0) || shard.inflight.contains_key(&pid.0) {
                continue;
            }
            let inflight = Arc::new(Inflight::new());
            shard.inflight.insert(pid.0, Arc::clone(&inflight));
            claimed.push((pid, inflight));
        }
        if claimed.is_empty() {
            return;
        }
        let epoch = self.invalidations.load(Ordering::Acquire);
        let ids: Vec<PageId> = claimed.iter().map(|(pid, _)| *pid).collect();
        let mut bufs: Vec<PageBuf> = ids.iter().map(|_| zeroed_page()).collect();
        if self.backend.read_pages(&ids, &mut bufs).is_err() {
            for (pid, inflight) in claimed {
                self.shards[self.shard_idx(pid)]
                    .lock()
                    .inflight
                    .remove(&pid.0);
                inflight.finish(None);
            }
            return;
        }
        self.stats.physical_reads.add(ids.len() as u64);
        let id_nums: Vec<u32> = ids.iter().map(|p| p.0).collect();
        self.stats.read_runs.add(run_count(&id_nums) as u64);
        let stale = self.invalidations.load(Ordering::Acquire) != epoch;
        for ((pid, inflight), buf) in claimed.into_iter().zip(bufs) {
            let data: PageArc = Arc::from(buf);
            let mut shard = self.shards[self.shard_idx(pid)].lock();
            shard.inflight.remove(&pid.0);
            if !stale && !shard.frames.contains_key(&pid.0) {
                let mut f = Frame::clean(Arc::clone(&data));
                f.prefetched_untouched = true;
                shard.frames.insert(pid.0, f);
                shard.clock.push(pid.0);
                self.evict_to_capacity(&mut shard);
            }
            drop(shard);
            inflight.finish(if stale { None } else { Some(data) });
        }
    }

    /// Clock sweep: evict unreferenced, unpinned frames until the shard
    /// fits its budget. A frame whose reference bit is set gets a
    /// second chance (the bit is cleared and the hand moves on).
    /// Uncommitted-dirty frames are never evicted (no-steal), nor are
    /// metadata frames whose logged image is not yet durable; any other
    /// committed-dirty frame is written to the backend first — no sync
    /// needed, its redo image is already durable in the WAL — so a
    /// churn workload bigger than the pool stays bounded even between
    /// checkpoints. If a bounded sweep finds no victim the shard
    /// overflows its capacity rather than stealing.
    fn evict_to_capacity(&self, shard: &mut Shard) {
        let durable = self.wal_durable.load(Ordering::Acquire);
        while shard.frames.len() > self.shard_capacity {
            let mut evicted = false;
            let budget = shard.clock.len() * 2;
            let mut scanned = 0;
            while scanned < budget && !shard.clock.is_empty() {
                if shard.hand >= shard.clock.len() {
                    shard.hand = 0;
                }
                let pid = shard.clock[shard.hand];
                let f = shard.frames.get_mut(&pid).expect("clock entry resident");
                if f.dirty_owner.is_some()
                    || f.wal_seq > durable
                    || f.pins.load(Ordering::Acquire) > 0
                {
                    shard.hand += 1;
                } else if f.referenced {
                    f.referenced = false;
                    shard.hand += 1;
                } else {
                    if f.committed_dirty {
                        // Write-on-evict; on failure keep the frame (the
                        // checkpointer will retry) and move on.
                        if self.backend.write_page(PageId(pid), &f.data).is_err() {
                            shard.hand += 1;
                            scanned += 1;
                            continue;
                        }
                        IoStats::bump(&self.stats.physical_writes);
                    }
                    if f.prefetched_untouched {
                        IoStats::bump(&self.stats.prefetch_wasted);
                    }
                    shard.frames.remove(&pid);
                    shard.clock.remove(shard.hand);
                    IoStats::bump(&self.stats.evictions);
                    evicted = true;
                    break;
                }
                scanned += 1;
            }
            if !evicted {
                IoStats::bump(&self.stats.dirty_overflows);
                return;
            }
        }
    }

    /// Writes a pid-sorted batch of frames through the vectored backend
    /// call, counting runs. Stats update only on success so a failed
    /// flush retries idempotently.
    fn write_batch(&self, pages: &[(u32, PageArc)]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let pairs: Vec<(PageId, &[u8; PAGE_SIZE])> =
            pages.iter().map(|(pid, d)| (PageId(*pid), &**d)).collect();
        self.backend.write_pages(&pairs)?;
        let ids: Vec<u32> = pages.iter().map(|(pid, _)| *pid).collect();
        let runs = run_count(&ids);
        self.stats.physical_writes.add(pages.len() as u64);
        self.stats.write_runs.add(runs as u64);
        self.stats.coalesced_writes.add((pages.len() - runs) as u64);
        Ok(())
    }

    fn invalidate(&self) {
        // Bump first: a fault that re-locks after its shard was cleared
        // must see the moved epoch and discard its (possibly stale)
        // bytes.
        self.invalidations.fetch_add(1, Ordering::AcqRel);
        for shard in &self.shards {
            let mut shard = shard.lock();
            // Dirty frames are newer than the backend: dropping one
            // would lose a write.
            shard
                .frames
                .retain(|_, f| f.dirty_owner.is_some() || f.committed_dirty);
            let shard = &mut *shard;
            let frames = &shard.frames;
            shard.clock.retain(|pid| frames.contains_key(pid));
            shard.hand = 0;
        }
    }
}

/// The prefetch queue and its worker threads.
struct PrefetchShared {
    q: Mutex<PrefetchQueue>,
    cv: Condvar,
}

struct PrefetchQueue {
    queue: VecDeque<PageId>,
    shutdown: bool,
    /// Workers currently faulting a claimed batch (for quiesce).
    active: usize,
}

struct Prefetcher {
    shared: Arc<PrefetchShared>,
    /// Queue bound: enqueues past this are dropped, not blocked on.
    depth: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    fn spawn(inner: &Arc<PoolInner>, workers: usize, depth: usize) -> Prefetcher {
        let shared = Arc::new(PrefetchShared {
            q: Mutex::new(PrefetchQueue {
                queue: VecDeque::new(),
                shutdown: false,
                active: 0,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let inner = Arc::clone(inner);
                std::thread::spawn(move || Prefetcher::run(&shared, &inner))
            })
            .collect();
        Prefetcher {
            shared,
            depth,
            workers: handles,
        }
    }

    fn run(shared: &PrefetchShared, inner: &PoolInner) {
        loop {
            let batch: Vec<PageId> = {
                let mut q = shared.q.lock();
                loop {
                    if q.shutdown {
                        return;
                    }
                    if !q.queue.is_empty() {
                        break;
                    }
                    shared.cv.wait(&mut q);
                }
                q.active += 1;
                let n = q.queue.len().min(PREFETCH_BATCH);
                q.queue.drain(..n).collect()
            };
            inner.prefetch_fault(&batch);
            let mut q = shared.q.lock();
            q.active -= 1;
            if q.active == 0 && q.queue.is_empty() {
                // Wake quiescers (workers ignore the spurious wake).
                shared.cv.notify_all();
            }
        }
    }

    fn shutdown(mut self) {
        {
            let mut q = self.shared.q.lock();
            q.shutdown = true;
            self.shared.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            h.join().ok();
        }
    }
}

/// The sharded buffer pool. Internally synchronised: all methods take
/// `&self` and lock only the shard(s) they touch.
pub struct BufferPool {
    inner: Arc<PoolInner>,
    prefetcher: Option<Prefetcher>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `backend`, striped into
    /// `shards` partitions (`page_id % shards`), with prefetch off.
    pub fn new(
        backend: Box<dyn Backend>,
        capacity: usize,
        shards: usize,
        stats: Arc<IoStats>,
    ) -> BufferPool {
        BufferPool::with_prefetch(backend, capacity, shards, stats, 0, 0, Arc::default())
    }

    /// [`BufferPool::new`] plus an asynchronous prefetcher:
    /// `prefetch_workers` background threads drain a queue bounded at
    /// `prefetch_depth` pages. `prefetch_workers = 0` disables prefetch
    /// ([`BufferPool::prefetch`] becomes a no-op). `wal_durable` is the
    /// WAL's durable group sequence, which gates the write-back of
    /// metadata frames ([`BufferPool::write_meta`]).
    pub fn with_prefetch(
        backend: Box<dyn Backend>,
        capacity: usize,
        shards: usize,
        stats: Arc<IoStats>,
        prefetch_workers: usize,
        prefetch_depth: usize,
        wal_durable: Arc<AtomicU64>,
    ) -> BufferPool {
        let shards = shards.max(1);
        let shard_capacity = capacity.max(1).div_ceil(shards);
        let inner = Arc::new(PoolInner {
            backend,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            stats,
            shard_pins: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            invalidations: AtomicU64::new(0),
            wal_durable,
        });
        let prefetcher = (prefetch_workers > 0)
            .then(|| Prefetcher::spawn(&inner, prefetch_workers, prefetch_depth.max(1)));
        BufferPool { inner, prefetcher }
    }

    /// Number of shards the pool is striped into.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Pool-wide count of outstanding page pins (test hook).
    pub fn outstanding_pins(&self) -> u64 {
        self.inner.outstanding_pins()
    }

    /// Reads page `pid` into `out` (logical read; miss = physical read).
    pub fn read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        IoStats::bump(&self.inner.stats.logical_reads);
        match self.inner.acquire(pid, false)? {
            Acquired::Copy(data) => {
                out.copy_from_slice(&data[..]);
                Ok(())
            }
            Acquired::Pinned(_) => unreachable!("acquire(pin=false) never pins"),
        }
    }

    /// Pins page `pid` and returns a zero-copy guard over its bytes.
    /// The frame cannot be evicted while the guard lives; a concurrent
    /// writer gets a private copy (copy-on-write), so the guard always
    /// sees the bytes as of the pin.
    pub fn read_pinned(&self, pid: PageId) -> Result<PageGuard> {
        IoStats::bump(&self.inner.stats.logical_reads);
        IoStats::bump(&self.inner.stats.pinned_reads);
        match self.inner.acquire(pid, true)? {
            Acquired::Pinned(guard) => Ok(guard),
            Acquired::Copy(_) => unreachable!("acquire(pin=true) always pins"),
        }
    }

    /// Announces pages a scan will want soon. Pages are enqueued (up to
    /// the configured depth; excess is dropped, never blocked on) and
    /// read asynchronously by the prefetch workers. No-op when the pool
    /// was built without prefetch workers.
    pub fn prefetch(&self, pids: &[PageId]) {
        let Some(p) = &self.prefetcher else { return };
        let mut q = p.shared.q.lock();
        let mut pushed = false;
        for &pid in pids {
            if q.queue.len() >= p.depth {
                break;
            }
            if q.queue.contains(&pid) {
                continue;
            }
            q.queue.push_back(pid);
            IoStats::bump(&self.inner.stats.prefetch_issued);
            pushed = true;
        }
        if pushed {
            p.shared.cv.notify_all();
        }
    }

    /// Blocks until the prefetch queue is empty and no worker is
    /// mid-batch (test and benchmark hook; no-op without workers).
    pub fn prefetch_quiesce(&self) {
        let Some(p) = &self.prefetcher else { return };
        let mut q = p.shared.q.lock();
        while !(q.queue.is_empty() && q.active == 0) {
            p.shared.cv.wait(&mut q);
        }
    }

    /// Buffers a transactional write of page `pid` by `txn` (no-steal:
    /// nothing reaches the backend until commit).
    pub fn write_txn(&self, txn: TxnId, pid: PageId, data: &[u8; PAGE_SIZE]) {
        IoStats::bump(&self.inner.stats.logical_writes);
        let mut shard = self.inner.shards[self.inner.shard_idx(pid)].lock();
        let inserted = !shard.frames.contains_key(&pid.0);
        let frame = shard
            .frames
            .entry(pid.0)
            .or_insert_with(|| Frame::clean(Arc::new([0u8; PAGE_SIZE])));
        // Copy-on-write: pinned guards keep their snapshot.
        Arc::make_mut(&mut frame.data).copy_from_slice(data);
        frame.dirty_owner = Some(txn);
        // A transaction only writes pages it allocated (shadow paging
        // redirects everything else), so a committed-dirty frame here
        // holds the free-list link image of a page that was free. The
        // write supersedes it: that image matters only while the page
        // is on the free list, and the allocation that took the page
        // off is queued behind the image — any sync that lets a
        // checkpoint recycle the image makes the allocation durable.
        frame.committed_dirty = false;
        frame.wal_seq = 0;
        frame.referenced = true;
        // A write is a touch too, but not a prefetch *hit*.
        frame.prefetched_untouched = false;
        if inserted {
            shard.clock.push(pid.0);
            self.inner.evict_to_capacity(&mut shard);
        }
    }

    /// Installs a metadata page image whose redo record was enqueued in
    /// the WAL as group sequence `seq`. The frame is committed-dirty:
    /// the checkpoint flush or eviction writes it back, but only once
    /// the WAL's durable sequence reaches `seq`.
    pub fn write_meta(&self, pid: PageId, data: &[u8; PAGE_SIZE], seq: u64) {
        IoStats::bump(&self.inner.stats.logical_writes);
        let mut shard = self.inner.shards[self.inner.shard_idx(pid)].lock();
        let inserted = !shard.frames.contains_key(&pid.0);
        let frame = shard
            .frames
            .entry(pid.0)
            .or_insert_with(|| Frame::clean(Arc::new([0u8; PAGE_SIZE])));
        Arc::make_mut(&mut frame.data).copy_from_slice(data);
        frame.dirty_owner = None;
        frame.committed_dirty = true;
        frame.wal_seq = seq;
        frame.referenced = true;
        frame.prefetched_untouched = false;
        if inserted {
            shard.clock.push(pid.0);
            self.inner.evict_to_capacity(&mut shard);
        }
    }

    /// Returns all dirty frames owned by `txn` as shared references
    /// (`Arc` clones, no page copies), sorted by page id for the WAL.
    pub fn dirty_of(&self, txn: TxnId) -> Vec<(PageId, Arc<[u8; PAGE_SIZE]>)> {
        let mut out: Vec<(PageId, PageArc)> = Vec::new();
        for shard in &self.inner.shards {
            let shard = shard.lock();
            out.extend(
                shard
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty_owner == Some(txn))
                    .map(|(&pid, f)| (PageId(pid), Arc::clone(&f.data))),
            );
        }
        out.sort_by_key(|(pid, _)| pid.0);
        out
    }

    /// Flushes `txn`'s dirty frames to the backend and marks them clean
    /// (the force step of commit — call after their images are logged).
    /// The dirty set is collected across **all** shards and written as
    /// one globally pid-sorted [`Backend::write_pages`] batch: shards
    /// stripe pages `pid % shards`, so per-shard batches could never
    /// contain adjacent pids — only a cross-shard batch lets contiguous
    /// copy-on-write allocations coalesce into multi-page runs. No
    /// shard lock is held during the backend write; the cheap Arc
    /// clones pin the committed images against later copy-on-write.
    ///
    /// The backend is synced only when `sync` is requested **and** the
    /// transaction actually dirtied pages: a read-only commit performs
    /// no backend I/O at all. Group commit passes `sync = false` — the
    /// redo images in the WAL are already durable, so the data sync is
    /// deferred to the next checkpoint (no-force).
    pub fn flush_txn(&self, txn: TxnId, sync: bool) -> Result<()> {
        let mut pages: Vec<(u32, PageArc)> = Vec::new();
        for shard in &self.inner.shards {
            let shard = shard.lock();
            pages.extend(
                shard
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty_owner == Some(txn))
                    .map(|(&pid, f)| (pid, Arc::clone(&f.data))),
            );
        }
        pages.sort_by_key(|(pid, _)| *pid);
        self.inner.write_batch(&pages)?;
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            for f in shard.frames.values_mut() {
                if f.dirty_owner == Some(txn) {
                    f.dirty_owner = None;
                }
            }
            self.inner.evict_to_capacity(&mut shard);
        }
        if sync && !pages.is_empty() {
            IoStats::bump(&self.inner.stats.data_syncs);
            self.inner.backend.sync()?;
        }
        Ok(())
    }

    /// Relabels `txn`'s dirty frames as committed-dirty without writing
    /// them (the no-force commit path: the redo images just became
    /// durable in the WAL, so the data writes are deferred to the
    /// checkpointer — or to write-on-evict under pool pressure).
    pub fn mark_committed(&self, txn: TxnId) {
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            for f in shard.frames.values_mut() {
                if f.dirty_owner == Some(txn) {
                    f.dirty_owner = None;
                    f.committed_dirty = true;
                }
            }
        }
    }

    /// Writes every committed-dirty frame to the backend and marks it
    /// clean — the fuzzy-checkpoint walk. The dirty set is collected
    /// across all shards (each lock held only long enough to clone the
    /// frame Arcs) and written as one globally pid-sorted vectored
    /// batch: shards stripe pages `pid % shards`, so only a
    /// cross-shard batch lets contiguous pids coalesce into runs. No
    /// lock is held during the backend write, so writers never stall
    /// behind checkpoint I/O at all. A frame a writer redirties behind
    /// the walk swaps in a fresh Arc under copy-on-write; the
    /// `ptr_eq` guard leaves its flag set, and the next checkpoint
    /// catches it. Metadata frames whose logged image is not yet
    /// durable are skipped too (WAL before data). Returns how many
    /// frames were written. The caller syncs the backend afterwards.
    pub fn flush_committed(&self) -> Result<usize> {
        let durable = self.inner.wal_durable.load(Ordering::Acquire);
        let mut pages: Vec<(u32, PageArc)> = Vec::new();
        for shard in &self.inner.shards {
            let shard = shard.lock();
            pages.extend(
                shard
                    .frames
                    .iter()
                    .filter(|(_, f)| f.committed_dirty && f.wal_seq <= durable)
                    .map(|(&pid, f)| (pid, Arc::clone(&f.data))),
            );
        }
        pages.sort_by_key(|(pid, _)| *pid);
        self.inner.write_batch(&pages)?;
        for (pid, written) in &pages {
            let mut shard = self.inner.shards[self.inner.shard_idx(PageId(*pid))].lock();
            if let Some(f) = shard.frames.get_mut(pid) {
                if Arc::ptr_eq(&f.data, written) {
                    f.committed_dirty = false;
                }
            }
        }
        Ok(pages.len())
    }

    /// Number of committed-dirty frames across all shards (test hook).
    pub fn committed_dirty_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .frames
                    .values()
                    .filter(|f| f.committed_dirty)
                    .count()
            })
            .sum()
    }

    /// Discards `txn`'s dirty frames (abort: the backend still holds the
    /// pre-transaction images).
    pub fn discard_txn(&self, txn: TxnId) {
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            shard.frames.retain(|_, f| f.dirty_owner != Some(txn));
            let shard = &mut *shard;
            let frames = &shard.frames;
            shard.clock.retain(|pid| frames.contains_key(pid));
            shard.hand = 0;
        }
    }

    /// True if any frame is dirty (used by checkpoint assertions).
    pub fn any_dirty(&self) -> bool {
        self.inner
            .shards
            .iter()
            .any(|s| s.lock().frames.values().any(|f| f.dirty_owner.is_some()))
    }

    /// Drops every clean frame (used after out-of-band backend changes,
    /// e.g. recovery replay, and by cold-cache measurements). Dirty
    /// frames stay: they are newer than the backend. Outstanding guards
    /// keep their snapshots but no longer pin anything resident.
    /// In-flight faults that raced this call discard their bytes and
    /// re-read.
    pub fn invalidate(&self) {
        self.inner.invalidate();
    }

    /// Durably syncs the backend.
    pub fn sync_backend(&self) -> Result<()> {
        IoStats::bump(&self.inner.stats.data_syncs);
        self.inner.backend.sync()
    }

    /// Direct backend write used by recovery (bypasses cache and stats).
    pub fn recovery_write(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.inner.backend.write_page(pid, data)
    }

    /// Direct backend read used by recovery.
    pub fn recovery_read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.inner.backend.read_page(pid, out)
    }

    /// Number of cached frames across all shards (test hook).
    pub fn cached_frames(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().frames.len())
            .sum()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Stop the prefetch workers first: they hold the inner Arc and
        // may still be installing frames.
        if let Some(p) = self.prefetcher.take() {
            p.shutdown();
        }
        // A PageGuard outliving the pool means a pin was leaked past the
        // storage layer's lifetime — catch it loudly in tests rather
        // than silently in production traces.
        if !std::thread::panicking() {
            let pins = self.inner.outstanding_pins();
            assert_eq!(pins, 0, "{pins} PageGuard(s) outlive their BufferPool");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultInjector, MemBackend};
    use crate::page::page_from_slice;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn pool(cap: usize, shards: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemBackend::new()),
            cap,
            shards,
            IoStats::new_shared(),
        )
    }

    #[test]
    fn txn_writes_invisible_to_backend_until_flush() {
        let p = pool(8, 2);
        let data = page_from_slice(b"uncommitted");
        p.write_txn(TxnId(1), PageId(3), &data);
        // The cache serves the new data...
        let mut out = zeroed_page();
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..11], b"uncommitted");
        // ...but after discarding, the backend's (zero) image returns.
        p.discard_txn(TxnId(1));
        p.read(PageId(3), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn flush_persists_and_cleans() {
        let p = pool(8, 2);
        let data = page_from_slice(b"committed");
        p.write_txn(TxnId(1), PageId(3), &data);
        assert_eq!(p.dirty_of(TxnId(1)).len(), 1);
        p.flush_txn(TxnId(1), true).unwrap();
        assert!(p.dirty_of(TxnId(1)).is_empty());
        assert!(!p.any_dirty());
        p.invalidate();
        let mut out = zeroed_page();
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..9], b"committed");
    }

    #[test]
    fn clock_evicts_clean_not_dirty() {
        // One shard so all four pages compete for two frames.
        let p = pool(2, 1);
        let d = page_from_slice(b"d");
        p.write_txn(TxnId(1), PageId(0), &d);
        let mut out = zeroed_page();
        p.read(PageId(1), &mut out).unwrap();
        p.read(PageId(2), &mut out).unwrap();
        p.read(PageId(3), &mut out).unwrap();
        // Capacity 2: the dirty frame survives every eviction.
        assert!(p.dirty_of(TxnId(1)).iter().any(|(pid, _)| pid.0 == 0));
        assert!(p.cached_frames() <= 2);
    }

    #[test]
    fn hit_miss_accounting() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 8, 2, Arc::clone(&stats));
        let mut out = zeroed_page();
        p.read(PageId(5), &mut out).unwrap(); // miss
        p.read(PageId(5), &mut out).unwrap(); // hit
        let s = stats.snapshot();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn meta_frame_reaches_backend_only_once_its_wal_sequence_is_durable() {
        let stats = IoStats::new_shared();
        let durable = Arc::new(AtomicU64::new(0));
        let p = BufferPool::with_prefetch(
            Box::new(MemBackend::new()),
            2,
            1,
            Arc::clone(&stats),
            0,
            0,
            Arc::clone(&durable),
        );
        p.write_meta(PageId(9), &page_from_slice(b"meta"), 3);
        // Not durable yet: neither the checkpoint flush nor eviction
        // pressure may write it back.
        assert_eq!(p.flush_committed().unwrap(), 0);
        let mut out = zeroed_page();
        for pid in 0..6 {
            p.read(PageId(pid), &mut out).unwrap();
        }
        assert_eq!(p.committed_dirty_count(), 1);
        assert_eq!(stats.snapshot().physical_writes, 0);
        // Dropping the cache keeps the frame rather than losing it.
        p.invalidate();
        p.read(PageId(9), &mut out).unwrap();
        assert_eq!(&out[..4], b"meta");
        durable.store(3, Ordering::Release);
        assert_eq!(p.flush_committed().unwrap(), 1);
        assert_eq!(stats.snapshot().physical_writes, 1);
        p.invalidate();
        p.read(PageId(9), &mut out).unwrap();
        assert_eq!(&out[..4], b"meta");
    }

    #[test]
    fn pinned_read_is_zero_copy_and_snapshot_isolated() {
        let p = pool(8, 2);
        p.recovery_write(PageId(4), &page_from_slice(b"before"))
            .unwrap();
        let g = p.read_pinned(PageId(4)).unwrap();
        assert_eq!(&g[..6], b"before");
        assert_eq!(p.outstanding_pins(), 1);
        // A writer replaces the frame's bytes; the guard's snapshot
        // survives (copy-on-write).
        p.write_txn(TxnId(1), PageId(4), &page_from_slice(b"after!"));
        assert_eq!(&g[..6], b"before");
        let g2 = p.read_pinned(PageId(4)).unwrap();
        assert_eq!(&g2[..6], b"after!");
        drop(g);
        drop(g2);
        assert_eq!(p.outstanding_pins(), 0);
        p.discard_txn(TxnId(1));
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        p.recovery_write(PageId(0), &page_from_slice(b"pinned"))
            .unwrap();
        let guard = p.read_pinned(PageId(0)).unwrap();
        let mut out = zeroed_page();
        for pid in 1..20 {
            p.read(PageId(pid), &mut out).unwrap();
        }
        // The pinned frame is still resident: reading it again is a hit.
        let before = stats.snapshot().physical_reads;
        p.read(PageId(0), &mut out).unwrap();
        assert_eq!(stats.snapshot().physical_reads, before);
        assert_eq!(&out[..6], b"pinned");
        assert!(stats.snapshot().evictions > 0, "pressure did evict others");
        drop(guard);
    }

    #[test]
    fn clock_gives_second_chance() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        let mut out = zeroed_page();
        p.read(PageId(0), &mut out).unwrap();
        p.read(PageId(1), &mut out).unwrap();
        // Re-reference page 0, then fault page 2: the sweep clears 0's
        // bit, passes it over once, and evicts page 1 instead.
        p.read(PageId(0), &mut out).unwrap();
        p.read(PageId(2), &mut out).unwrap();
        let before = stats.snapshot().physical_reads;
        p.read(PageId(0), &mut out).unwrap(); // still resident: hit
        assert_eq!(stats.snapshot().physical_reads, before);
        p.read(PageId(1), &mut out).unwrap(); // evicted: miss
        assert_eq!(stats.snapshot().physical_reads, before + 1);
    }

    #[test]
    fn all_dirty_overflows_capacity() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        for pid in 0..5 {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(b"dirty"));
        }
        // No-steal: every frame is dirty, so the pool grows past its
        // two-frame budget instead of evicting.
        assert_eq!(p.cached_frames(), 5);
        assert!(stats.snapshot().dirty_overflows > 0);
        assert_eq!(stats.snapshot().evictions, 0);
        p.discard_txn(TxnId(1));
    }

    #[test]
    fn committed_dirty_frames_flush_and_write_on_evict() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 2, 1, Arc::clone(&stats));
        for pid in 0..5u32 {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(&[b'a' + pid as u8]));
        }
        p.mark_committed(TxnId(1));
        assert!(!p.any_dirty());
        assert_eq!(p.committed_dirty_count(), 5);
        // Faulting one more page forces eviction: with more committed
        // frames than capacity, some must be written out on evict
        // instead of overflowing the pool.
        let mut out = zeroed_page();
        p.read(PageId(10), &mut out).unwrap();
        assert!(p.cached_frames() <= 2, "pool stayed bounded");
        assert!(p.committed_dirty_count() < 5, "write-on-evict fired");
        // flush_committed writes whatever is still resident.
        let resident = p.committed_dirty_count();
        assert_eq!(p.flush_committed().unwrap(), resident);
        assert_eq!(p.committed_dirty_count(), 0);
        // Every committed write reached the backend, one way or the other.
        p.invalidate();
        for pid in 0..5u32 {
            p.read(PageId(pid), &mut out).unwrap();
            assert_eq!(out[0], b'a' + pid as u8, "page {pid} durable");
        }
    }

    #[test]
    fn batched_flush_counts_runs_and_coalesced_pages() {
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(MemBackend::new()), 64, 1, Arc::clone(&stats));
        // Two contiguous runs: [0,1,2] and [10,11].
        for pid in [0u32, 1, 2, 10, 11] {
            p.write_txn(TxnId(1), PageId(pid), &page_from_slice(&[pid as u8]));
        }
        p.flush_txn(TxnId(1), false).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.physical_writes, 5);
        assert_eq!(s.write_runs, 2);
        assert_eq!(s.coalesced_writes, 3);
    }

    #[test]
    fn guard_outliving_pool_trips_assertion() {
        let p = pool(4, 2);
        p.recovery_write(PageId(1), &page_from_slice(b"x")).unwrap();
        let guard = p.read_pinned(PageId(1)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(p)));
        assert!(
            err.is_err(),
            "dropping the pool under a live pin must panic"
        );
        drop(guard);
    }

    #[test]
    fn concurrent_readers_on_distinct_shards() {
        let p = Arc::new(pool(64, 8));
        for pid in 0..8 {
            p.recovery_write(PageId(pid), &page_from_slice(&[b'a' + pid as u8]))
                .unwrap();
        }
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u32)
            .map(|pid| {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        let g = p.read_pinned(PageId(pid)).unwrap();
                        assert_eq!(g[0], b'a' + pid as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.outstanding_pins(), 0);
    }

    /// A backend whose read of one designated page blocks until released
    /// (or a generous timeout), signalling when the read starts.
    struct GatedBackend {
        inner: MemBackend,
        gate_pid: u32,
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Backend for GatedBackend {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            if pid.0 == self.gate_pid {
                self.started.send(()).ok();
                let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
            }
            self.inner.read_page(pid, out)
        }
        fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
            self.inner.write_page(pid, data)
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn cold_read_does_not_block_hot_hit_in_same_shard() {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = GatedBackend {
            inner: MemBackend::new(),
            gate_pid: 0,
            started: started_tx,
            release: Mutex::new(release_rx),
        };
        backend
            .write_page(PageId(1), &page_from_slice(b"hot"))
            .unwrap();
        // One shard: pages 0 and 1 share a lock.
        let p = Arc::new(BufferPool::new(
            Box::new(backend),
            8,
            1,
            IoStats::new_shared(),
        ));
        // Warm page 1 so the next access is a pure hit.
        let mut out = zeroed_page();
        p.read(PageId(1), &mut out).unwrap();
        let cold = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let mut out = zeroed_page();
                p.read(PageId(0), &mut out).unwrap();
            })
        };
        // Wait until the cold fault is inside the backend read...
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("cold read reached the backend");
        // ...then the hot hit must complete while that read is still
        // blocked. If the fault held the shard lock, this would stall
        // until the gate times out.
        let t = Instant::now();
        p.read(PageId(1), &mut out).unwrap();
        assert_eq!(&out[..3], b"hot");
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "hit stalled behind an in-flight cold read"
        );
        release_tx.send(()).ok();
        cold.join().unwrap();
    }

    /// A backend that stamps each page with its id and sleeps briefly,
    /// widening race windows.
    struct SlowStampBackend {
        delay: Duration,
        reads: AtomicU64,
    }

    impl Backend for SlowStampBackend {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            out.fill(0);
            out[..4].copy_from_slice(&pid.0.to_le_bytes());
            Ok(())
        }
        fn write_page(&self, _pid: PageId, _data: &[u8; PAGE_SIZE]) -> Result<()> {
            Ok(())
        }
        fn page_count(&self) -> u32 {
            u32::MAX
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_faulters_of_one_page_share_one_read() {
        let stats = IoStats::new_shared();
        let p = Arc::new(BufferPool::new(
            Box::new(SlowStampBackend {
                delay: Duration::from_millis(50),
                reads: AtomicU64::new(0),
            }),
            8,
            1,
            Arc::clone(&stats),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        let mut out = zeroed_page();
                        p.read(PageId(7), &mut out).unwrap();
                        assert_eq!(&out[..4], &7u32.to_le_bytes());
                    } else {
                        let g = p.read_pinned(PageId(7)).unwrap();
                        assert_eq!(&g[..4], &7u32.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = stats.snapshot();
        assert_eq!(s.physical_reads, 1, "one physical read for 8 faulters");
        assert!(
            s.inflight_waits >= 1,
            "someone waited on the in-flight read"
        );
    }

    #[test]
    fn eviction_races_inflight_faults_without_corruption() {
        // Capacity 2, one shard, slow backend: installs constantly race
        // evictions and waiter re-loops. Contents must stay exact.
        let p = Arc::new(BufferPool::new(
            Box::new(SlowStampBackend {
                delay: Duration::from_millis(1),
                reads: AtomicU64::new(0),
            }),
            2,
            1,
            IoStats::new_shared(),
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let pid = (t * 13 + i) % 16;
                        if i % 2 == 0 {
                            let mut out = zeroed_page();
                            p.read(PageId(pid), &mut out).unwrap();
                            assert_eq!(&out[..4], &pid.to_le_bytes());
                        } else {
                            let g = p.read_pinned(PageId(pid)).unwrap();
                            assert_eq!(&g[..4], &pid.to_le_bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.outstanding_pins(), 0);
    }

    #[test]
    fn failed_fault_clears_inflight_and_pool_stays_usable() {
        let inj = Arc::new(FaultInjector::new(MemBackend::new()));
        inj.write_page(PageId(3), &page_from_slice(b"ok")).unwrap();
        let stats = IoStats::new_shared();
        let p = BufferPool::new(Box::new(Arc::clone(&inj)), 8, 2, Arc::clone(&stats));
        inj.fail_after(0);
        let mut out = zeroed_page();
        // Each caller surfaces its own error...
        assert!(p.read(PageId(3), &mut out).is_err());
        assert!(p.read_pinned(PageId(3)).is_err());
        inj.heal();
        // ...and the in-flight entry was cleared: the retry faults fresh.
        p.read(PageId(3), &mut out).unwrap();
        assert_eq!(&out[..2], b"ok");
        assert_eq!(stats.snapshot().physical_reads, 3);
    }

    fn prefetch_pool(cap: usize, workers: usize) -> (BufferPool, Arc<IoStats>) {
        let stats = IoStats::new_shared();
        let p = BufferPool::with_prefetch(
            Box::new(MemBackend::new()),
            cap,
            2,
            Arc::clone(&stats),
            workers,
            64,
            Arc::default(),
        );
        (p, stats)
    }

    #[test]
    fn prefetch_warms_cache_and_counts_hits() {
        let (p, stats) = prefetch_pool(32, 2);
        for pid in 0..8u32 {
            p.recovery_write(PageId(pid), &page_from_slice(&[b'p', pid as u8]))
                .unwrap();
        }
        p.invalidate();
        let pids: Vec<PageId> = (0..8).map(PageId).collect();
        p.prefetch(&pids);
        p.prefetch_quiesce();
        let faulted = stats.snapshot().physical_reads;
        assert!(faulted >= 8, "prefetch performed the physical reads");
        let mut out = zeroed_page();
        for pid in 0..8u32 {
            p.read(PageId(pid), &mut out).unwrap();
            assert_eq!(&out[..2], &[b'p', pid as u8]);
        }
        let s = stats.snapshot();
        assert_eq!(s.physical_reads, faulted, "demand reads were all hits");
        assert_eq!(s.prefetch_issued, 8);
        assert_eq!(s.prefetch_hits, 8);
    }

    #[test]
    fn prefetch_disabled_is_noop() {
        let (p, stats) = prefetch_pool(32, 0);
        p.prefetch(&[PageId(1), PageId(2)]);
        p.prefetch_quiesce();
        assert_eq!(stats.snapshot().prefetch_issued, 0);
        assert_eq!(stats.snapshot().physical_reads, 0);
    }

    #[test]
    fn prefetch_failure_is_silent_and_demand_read_retries() {
        let inj = Arc::new(FaultInjector::new(MemBackend::new()));
        inj.write_page(PageId(5), &page_from_slice(b"later"))
            .unwrap();
        let stats = IoStats::new_shared();
        let p = BufferPool::with_prefetch(
            Box::new(Arc::clone(&inj)),
            8,
            2,
            Arc::clone(&stats),
            1,
            16,
            Arc::default(),
        );
        inj.fail_after(0);
        p.prefetch(&[PageId(5)]);
        p.prefetch_quiesce();
        // The failure was swallowed: nothing installed, nothing counted
        // as transferred, no error anywhere.
        assert_eq!(stats.snapshot().physical_reads, 0);
        assert_eq!(stats.snapshot().prefetch_hits, 0);
        assert!(inj.injected() >= 1);
        // While the injector still fails, the demand read surfaces the
        // error to its caller — exactly once, then the pool recovers.
        let mut out = zeroed_page();
        assert!(p.read(PageId(5), &mut out).is_err());
        inj.heal();
        p.read(PageId(5), &mut out).unwrap();
        assert_eq!(&out[..5], b"later");
    }

    #[test]
    fn wasted_prefetch_is_counted_on_eviction() {
        let stats = IoStats::new_shared();
        let p = BufferPool::with_prefetch(
            Box::new(MemBackend::new()),
            2,
            1,
            Arc::clone(&stats),
            1,
            64,
            Arc::default(),
        );
        // Six prefetched pages into a two-frame pool: most are evicted
        // before any demand read touches them.
        let pids: Vec<PageId> = (0..6).map(PageId).collect();
        p.prefetch(&pids);
        p.prefetch_quiesce();
        assert!(p.cached_frames() <= 2);
        assert!(
            stats.snapshot().prefetch_wasted > 0,
            "untouched prefetched frames were evicted"
        );
    }

    #[test]
    fn read_pinned_and_prefetched_reads_agree() {
        let (p, _stats) = prefetch_pool(64, 2);
        for pid in 0..12u32 {
            p.recovery_write(PageId(pid), &page_from_slice(&[0xAB, pid as u8]))
                .unwrap();
        }
        p.invalidate();
        let pids: Vec<PageId> = (0..12).map(PageId).collect();
        p.prefetch(&pids);
        p.prefetch_quiesce();
        for pid in 0..12u32 {
            let mut copied = zeroed_page();
            p.read(PageId(pid), &mut copied).unwrap();
            let pinned = p.read_pinned(PageId(pid)).unwrap();
            assert_eq!(&copied[..], &pinned[..], "page {pid} diverged");
        }
    }
}
