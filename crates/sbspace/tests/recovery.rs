//! Crash-recovery tests: a "crash" abandons an `Sbspace` without
//! committing and reopens a new one over the same backend and log.
//!
//! Every scenario runs twice — with per-commit WAL forcing and with
//! group commit (shared syncs, no-force data pages) — since the two
//! modes take different paths to the same durability contract.

use grt_sbspace::lo::{decode_free_next, Header, Inode};
use grt_sbspace::page::{zeroed_page, NO_PAGE};
use grt_sbspace::wal::{MemWal, WalRecord, WalStore};
use grt_sbspace::{
    Backend, FaultInjector, IsolationLevel, LoId, LockMode, MemBackend, PageBuf, PageId, Result,
    SbError, Sbspace, SbspaceOptions, PAGE_SIZE,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Prefetch workers for the spaces `opts` builds — swept by
    /// `both_modes` so every scenario also runs with an active
    /// prefetcher (whose in-flight installs must not confuse replay).
    static PREFETCH_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn opts(group_commit: bool) -> SbspaceOptions {
    SbspaceOptions {
        pool_pages: 64,
        lock_timeout: Duration::from_millis(200),
        group_commit,
        prefetch_workers: PREFETCH_WORKERS.with(|c| c.get()),
        ..Default::default()
    }
}

fn shared() -> (Arc<MemBackend>, Arc<MemWal>) {
    (Arc::new(MemBackend::new()), Arc::new(MemWal::new()))
}

fn reopen(backend: &Arc<MemBackend>, wal: &Arc<MemWal>, group_commit: bool) -> Sbspace {
    Sbspace::open_with(Arc::clone(backend), Arc::clone(wal), opts(group_commit)).expect("reopen")
}

/// Runs `body` across the commit-mode × prefetch matrix — group commit
/// off/on, prefetch workers 0/2 — each over a fresh backend and log.
/// The two modes take different paths to the same durability contract,
/// and the prefetcher must be invisible to all of them.
fn both_modes(body: impl Fn(bool)) {
    for prefetch_workers in [0usize, 2] {
        PREFETCH_WORKERS.with(|c| c.set(prefetch_workers));
        for group_commit in [false, true] {
            body(group_commit);
        }
    }
    PREFETCH_WORKERS.with(|c| c.set(0));
}

#[test]
fn committed_data_survives_crash() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"durable bytes").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();
        drop(sb); // crash (no checkpoint)

        let sb2 = reopen(&backend, &wal, gc);
        let t = sb2.begin(IsolationLevel::ReadCommitted);
        let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 13];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes", "group_commit={gc}");
    });
}

#[test]
fn uncommitted_data_vanishes_after_crash() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        // One committed object as a baseline.
        let t0 = sb.begin(IsolationLevel::ReadCommitted);
        let base = sb.create_lo(&t0).unwrap();
        let mut h = sb.open_lo(&t0, base, LockMode::Exclusive).unwrap();
        h.write_at(0, b"base").unwrap();
        h.close().unwrap();
        t0.commit().unwrap();

        // A transaction that crashes mid-flight.
        let t1 = sb.begin(IsolationLevel::ReadCommitted);
        let doomed = sb.create_lo(&t1).unwrap();
        let mut h = sb.open_lo(&t1, doomed, LockMode::Exclusive).unwrap();
        h.write_at(0, &vec![7u8; 5 * PAGE_SIZE]).unwrap();
        h.close().unwrap();
        std::mem::forget(t1); // crash without abort
        drop(sb);

        let sb2 = reopen(&backend, &wal, gc);
        let t = sb2.begin(IsolationLevel::ReadCommitted);
        // The committed object is intact.
        let hb = sb2.open_lo(&t, base, LockMode::Shared).unwrap();
        let mut buf = [0u8; 4];
        hb.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"base", "group_commit={gc}");
        // The uncommitted object never came to exist.
        assert!(sb2.open_lo(&t, doomed, LockMode::Shared).is_err());
    });
}

/// Creates an object holding `bytes` and commits it.
fn committed_object(sb: &Sbspace, bytes: &[u8]) -> LoId {
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&t).unwrap();
    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
    h.write_at(0, bytes).unwrap();
    h.close().unwrap();
    t.commit().unwrap();
    lo
}

fn assert_reads(sb: &Sbspace, lo: LoId, want: &[u8], ctx: &str) {
    let t = sb.begin(IsolationLevel::ReadCommitted);
    let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
    let mut got = vec![0u8; want.len()];
    h.read_at(0, &mut got).unwrap();
    assert_eq!(got, want, "{ctx}: committed bytes of {lo} lost");
}

/// Free-list accounting, read straight off a freshly recovered backend
/// (recovery writes every replayed image through and syncs): each page
/// below the allocation watermark other than the header is on the free
/// list or reachable from a live object's inode — exactly once.
fn assert_page_accounting(backend: &MemBackend, live: &[LoId], ctx: &str) {
    let read = |pid: u32| -> Result<PageBuf> {
        let mut p = zeroed_page();
        backend.read_page(PageId(pid), &mut p)?;
        Ok(p)
    };
    let header = Header::decode(&read(0).unwrap()).unwrap();
    let mut holder: HashMap<u32, String> = HashMap::new();
    let mut claim = |pid: u32, who: String| {
        assert!(
            pid > 0 && pid < header.total_pages,
            "{ctx}: {who} holds page {pid}, outside 1..{}",
            header.total_pages
        );
        if let Some(prev) = holder.insert(pid, who.clone()) {
            panic!("{ctx}: page {pid} held by both {prev} and {who}");
        }
    };
    let mut cursor = header.free_head;
    while cursor != NO_PAGE {
        claim(cursor, "the free list".into());
        cursor = decode_free_next(&read(cursor).unwrap()).unwrap();
    }
    for &lo in live {
        let inode = Inode::decode(lo, read).unwrap();
        for pid in inode.all_pages(lo) {
            claim(pid, lo.to_string());
        }
    }
    assert_eq!(
        holder.len() as u32,
        header.total_pages - 1,
        "{ctx}: pages leaked below the watermark"
    );
}

/// Allocations are queued in the WAL without a sync of their own, so a
/// crashed transaction's allocations exist only if a later sync covered
/// them. Here another session commits after them, which does: recovery
/// must free the leaked pages, and a new object must reuse them.
#[test]
fn crashed_allocations_are_reclaimed_once_synced() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let t1 = sb.begin(IsolationLevel::ReadCommitted);
        let doomed = sb.create_lo(&t1).unwrap();
        let mut h = sb.open_lo(&t1, doomed, LockMode::Exclusive).unwrap();
        for _ in 0..10 {
            h.append_page(&[1u8; PAGE_SIZE]).unwrap();
        }
        h.close().unwrap();
        // Another session's commit syncs the queued allocation notes.
        committed_object(&sb, b"bystander");
        std::mem::forget(t1);
        drop(sb);

        // Recovery frees the leaked pages; a new object reuses them
        // instead of extending the space.
        let sb2 = reopen(&backend, &wal, gc);
        let recovered = sb2.space_info().unwrap();
        assert!(
            recovered.free_pages >= 11,
            "leaked pages not back on the free list: {recovered:?} (group_commit={gc})"
        );
        let t2 = sb2.begin(IsolationLevel::ReadCommitted);
        let lo = sb2.create_lo(&t2).unwrap();
        let mut h = sb2.open_lo(&t2, lo, LockMode::Exclusive).unwrap();
        for _ in 0..10 {
            h.append_page(&[2u8; PAGE_SIZE]).unwrap();
        }
        h.close().unwrap();
        t2.commit().unwrap();
        let after = sb2.space_info().unwrap();
        assert_eq!(
            after.total_pages, recovered.total_pages,
            "allocation watermark grew instead of reusing freed pages (group_commit={gc})"
        );
    });
}

/// With no sync after them, a crashed transaction's allocations never
/// reached the log: recovery finds the watermark and the free list as
/// they were before the transaction began.
#[test]
fn crashed_allocations_never_synced_leave_no_trace() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        // A non-empty free list, durable: drop a committed object and
        // let a checkpoint sync the reclaimed pages.
        let gone = committed_object(&sb, &[3u8; 3 * PAGE_SIZE]);
        let t0 = sb.begin(IsolationLevel::ReadCommitted);
        sb.drop_lo(&t0, gone).unwrap();
        t0.commit().unwrap();
        sb.checkpoint().unwrap();
        let before = sb.space_info().unwrap();
        assert!(before.free_pages > 0);

        let t1 = sb.begin(IsolationLevel::ReadCommitted);
        let doomed = sb.create_lo(&t1).unwrap();
        let mut h = sb.open_lo(&t1, doomed, LockMode::Exclusive).unwrap();
        for _ in 0..10 {
            h.append_page(&[1u8; PAGE_SIZE]).unwrap();
        }
        h.close().unwrap();
        std::mem::forget(t1);
        drop(sb);

        let sb2 = reopen(&backend, &wal, gc);
        let recovered = sb2.space_info().unwrap();
        assert_eq!(
            (recovered.total_pages, recovered.free_pages),
            (before.total_pages, before.free_pages),
            "unsynced allocations left a trace (group_commit={gc})"
        );
    });
}

// ---------------------------------------------------------------------
// Crashes at the durability boundaries of queued metadata
// ---------------------------------------------------------------------

/// A crash after a transaction's allocations are queued but before it
/// commits: the committed object it was rewriting (shadow paging moved
/// the rewrite to a fresh page) and the free list come back exact.
#[test]
fn crash_after_queued_allocation_before_commit() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let base = committed_object(&sb, &[5u8; 2 * PAGE_SIZE]);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t, base, LockMode::Exclusive).unwrap();
        h.write_at(0, b"never committed").unwrap();
        h.close().unwrap();
        let doomed = sb.create_lo(&t).unwrap();
        let mut h = sb.open_lo(&t, doomed, LockMode::Exclusive).unwrap();
        h.write_at(0, &[9u8; 3 * PAGE_SIZE]).unwrap();
        h.close().unwrap();
        std::mem::forget(t);
        drop(sb);

        let sb2 = reopen(&backend, &wal, gc);
        let ctx = format!("group_commit={gc}");
        assert_page_accounting(&backend, &[base], &ctx);
        assert_reads(&sb2, base, &[5u8; 2 * PAGE_SIZE], &ctx);
    });
}

/// A crash after a commit is durable but before its post-commit
/// reclamation (the superseded pages going back on the free list) is
/// synced: the commit's retire note makes recovery free them.
#[test]
fn crash_after_commit_before_reclaim_is_synced() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let base = committed_object(&sb, &[1u8; 3 * PAGE_SIZE]);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t, base, LockMode::Exclusive).unwrap();
        h.write_at(0, &[2u8; 3 * PAGE_SIZE]).unwrap();
        h.close().unwrap();
        t.commit().unwrap();
        // The reclamation is queued behind the commit, not yet logged.
        let logged = WalRecord::decode_stream(&wal.read_all().unwrap());
        assert!(
            matches!(logged.last(), Some(WalRecord::Commit { .. })),
            "the reclaim batch was synced with the commit (group_commit={gc})"
        );
        drop(sb);

        let sb2 = reopen(&backend, &wal, gc);
        let ctx = format!("group_commit={gc}");
        assert_page_accounting(&backend, &[base], &ctx);
        assert_reads(&sb2, base, &[2u8; 3 * PAGE_SIZE], &ctx);
    });
}

#[test]
fn repeated_crashes_are_idempotent() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        for round in 0..5 {
            let sb = reopen(&backend, &wal, gc);
            let t = sb.begin(IsolationLevel::ReadCommitted);
            let lo = sb.create_lo(&t).unwrap();
            let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, format!("round {round}").as_bytes()).unwrap();
            h.close().unwrap();
            if round % 2 == 0 {
                t.commit().unwrap();
            } else {
                std::mem::forget(t);
            }
            drop(sb); // crash every round
        }
        // The space still opens and works.
        let sb = reopen(&backend, &wal, gc);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&t).unwrap();
        sb.verify_lo(&t, lo).unwrap();
        t.commit().unwrap();
    });
}

#[test]
fn torn_log_tail_is_survivable() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&t).unwrap();
        let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"ok").unwrap();
        h.close().unwrap();
        t.commit().unwrap();
        drop(sb);
        // Corrupt the log by appending garbage (a torn record).
        wal.append(&[0xde, 0xad, 0xbe]).unwrap();
        let sb2 = reopen(&backend, &wal, gc);
        let t2 = sb2.begin(IsolationLevel::ReadCommitted);
        let h2 = sb2.open_lo(&t2, lo, LockMode::Shared).unwrap();
        let mut buf = [0u8; 2];
        h2.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ok", "group_commit={gc}");
    });
}

#[test]
fn io_fault_surfaces_as_error_not_corruption() {
    both_modes(|gc| {
        let backend = Arc::new(FaultInjector::new(MemBackend::new()));
        let wal = Arc::new(MemWal::new());
        let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(gc)).unwrap();
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&t).unwrap();
        let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"before fault").unwrap();
        backend.fail_after(0);
        // Reads now fail loudly...
        let mut sink = [0u8; 4096 * 4];
        let got: Result<usize> = h.read_at(1 << 20, &mut sink);
        let _ = got; // reads within cache may still succeed; force a miss below
        let err = sb.open_lo(&t, lo, LockMode::Exclusive).err();
        backend.heal();
        // ...and after healing everything still works.
        let mut buf = [0u8; 12];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"before fault", "group_commit={gc}");
        drop(err);
    });
}

#[test]
fn file_backed_space_recovers_across_process_style_reopen() {
    for gc in [false, true] {
        let dir =
            std::env::temp_dir().join(format!("sbspace-recovery-{}-gc{gc}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let lo;
        {
            let sb = Sbspace::file(&dir, opts(gc)).unwrap();
            let t = sb.begin(IsolationLevel::ReadCommitted);
            lo = sb.create_lo(&t).unwrap();
            let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, b"on disk").unwrap();
            h.close().unwrap();
            t.commit().unwrap();
            // No checkpoint: the log still holds the images.
        }
        {
            let sb = Sbspace::file(&dir, opts(gc)).unwrap();
            let t = sb.begin(IsolationLevel::ReadCommitted);
            let h = sb.open_lo(&t, lo, LockMode::Shared).unwrap();
            let mut buf = [0u8; 7];
            h.read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"on disk", "group_commit={gc}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Group-commit crash safety
// ---------------------------------------------------------------------

/// A WAL that, once armed, tears the next append — only the first half
/// of the bytes lands before the append reports failure. Models a
/// partial log write during a group flush.
struct TearingWal {
    inner: MemWal,
    armed: std::sync::atomic::AtomicBool,
}

impl TearingWal {
    fn new() -> TearingWal {
        TearingWal {
            inner: MemWal::new(),
            armed: std::sync::atomic::AtomicBool::new(false),
        }
    }
    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl WalStore for TearingWal {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.inner.append(&bytes[..bytes.len() / 2]).unwrap();
            return Err(SbError::Io("torn log write".into()));
        }
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn segments(&self) -> Result<Vec<u64>> {
        self.inner.segments()
    }
    fn active_segment(&self) -> u64 {
        self.inner.active_segment()
    }
    fn truncate(&self) -> Result<()> {
        self.inner.truncate()
    }
}

/// A burst of committed transactions under group commit fully replays
/// after a crash: no-force means the data pages may never have reached
/// the backend, so every byte must come back from the shared log.
#[test]
fn group_commit_burst_fully_replays_after_crash() {
    let (backend, wal) = shared();
    let sb = reopen(&backend, &wal, true);
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let los: Vec<_> = (0..8).map(|_| sb.create_lo(&setup).unwrap()).collect();
    for &lo in &los {
        let h = sb.open_lo(&setup, lo, LockMode::Exclusive).unwrap();
        h.close().unwrap();
    }
    setup.commit().unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(los.len()));
    std::thread::scope(|s| {
        for (i, &lo) in los.iter().enumerate() {
            let (sb, barrier) = (&sb, Arc::clone(&barrier));
            s.spawn(move || {
                let t = sb.begin(IsolationLevel::ReadCommitted);
                let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                h.write_at(0, format!("txn {i} payload").as_bytes())
                    .unwrap();
                h.close().unwrap();
                barrier.wait(); // commit as one burst, sharing groups
                t.commit().unwrap();
            });
        }
    });
    drop(sb); // crash: no checkpoint, data pages possibly never synced

    let sb2 = reopen(&backend, &wal, true);
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    for (i, &lo) in los.iter().enumerate() {
        let h = sb2.open_lo(&t, lo, LockMode::Shared).unwrap();
        let want = format!("txn {i} payload");
        let mut buf = vec![0u8; want.len()];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, want.into_bytes(), "txn {i} lost from the group");
    }
}

/// A reopened space starts with an empty published-page-table
/// registry; the first snapshot over an object seeds it from the
/// on-disk inode and then reads exactly the recovered bytes.
#[test]
fn snapshot_after_reopen_seeds_from_inode() {
    both_modes(|gc| {
        let (backend, wal) = shared();
        let sb = reopen(&backend, &wal, gc);
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let mut h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        h.write_at(0, b"seeded bytes").unwrap();
        h.close().unwrap();
        txn.commit().unwrap();
        drop(sb); // crash (no checkpoint)

        let sb2 = reopen(&backend, &wal, gc);
        let snap = sb2.snapshot_for(&[lo]).unwrap();
        let reader = snap.reader(lo).unwrap();
        assert_eq!(
            &reader.read_page(0).unwrap()[..12],
            b"seeded bytes",
            "group_commit={gc}"
        );
        drop(reader);
        drop(snap);
        assert_eq!(sb2.snapshots_open(), 0);
        // A snapshot over a missing object errors (the engine's cue to
        // fall back to the locked path).
        assert!(sb2.snapshot_for(&[grt_sbspace::LoId(9999)]).is_err());
    });
}

/// If the group leader's log write tears mid-batch, every transaction
/// in the batch reports failure and none of their effects survive the
/// crash — the batch is all-or-nothing.
#[test]
fn torn_group_batch_is_fully_absent_after_crash() {
    let backend = Arc::new(MemBackend::new());
    let wal = Arc::new(TearingWal::new());
    let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(true)).expect("open");

    // A committed baseline object that must survive everything below.
    let t0 = sb.begin(IsolationLevel::ReadCommitted);
    let base = sb.create_lo(&t0).unwrap();
    let mut h = sb.open_lo(&t0, base, LockMode::Exclusive).unwrap();
    h.write_at(0, b"base").unwrap();
    h.close().unwrap();
    t0.commit().unwrap();

    // Objects for the doomed burst, created and pre-sized up front.
    // The burst transactions still allocate at write time (shadow
    // paging copies committed pages out), so the tear is armed only
    // after every write has logged its allocations — it must hit the
    // group batch itself (page images + retire note + commit).
    let setup = sb.begin(IsolationLevel::ReadCommitted);
    let los: Vec<_> = (0..4).map(|_| sb.create_lo(&setup).unwrap()).collect();
    for &lo in &los {
        let mut h = sb.open_lo(&setup, lo, LockMode::Exclusive).unwrap();
        h.append_page(&[0u8; PAGE_SIZE]).unwrap();
        h.close().unwrap();
    }
    setup.commit().unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(los.len() + 1));
    let outcomes: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = los
            .iter()
            .enumerate()
            .map(|(i, &lo)| {
                let (sb, barrier) = (&sb, Arc::clone(&barrier));
                s.spawn(move || {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                    h.write_at(0, format!("doomed {i}").as_bytes()).unwrap();
                    h.close().unwrap();
                    barrier.wait(); // writes logged; main thread arms the tear
                    barrier.wait(); // tear armed; commit as one burst
                    (i, t.commit().is_ok())
                })
            })
            .collect();
        barrier.wait(); // every write's allocations are durably logged
        wal.arm(); // the next group flush tears
        barrier.wait();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(sb); // crash

    // Atomicity: a transaction's payload survives recovery if and only
    // if its commit reported success.
    let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(true)).unwrap();
    let t = sb2.begin(IsolationLevel::ReadCommitted);
    let hb = sb2.open_lo(&t, base, LockMode::Shared).unwrap();
    let mut buf = [0u8; 4];
    hb.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"base", "baseline object lost");
    let mut failures = 0;
    for (i, ok) in outcomes {
        let h = sb2.open_lo(&t, los[i], LockMode::Shared).unwrap();
        let want = format!("doomed {i}").into_bytes();
        let mut got = vec![0u8; want.len()];
        let read = h.read_at(0, &mut got).unwrap_or(0);
        let survived = read == want.len() && got == want;
        assert_eq!(
            survived, ok,
            "txn {i}: commit said {ok} but recovery says survived={survived}"
        );
        if !ok {
            failures += 1;
        }
    }
    assert!(failures > 0, "the torn append failed no transaction");
}

/// A crash after a group flush failed and poisoned the log: the failed
/// transaction and everything queued behind it are absent, later
/// allocations fail fast instead of queueing past the torn tail, and
/// recovery restores the committed state with exact page accounting.
#[test]
fn crash_after_poisoned_group_flush() {
    both_modes(|gc| {
        let backend = Arc::new(MemBackend::new());
        let wal = Arc::new(TearingWal::new());
        let open = || Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts(gc)).unwrap();
        let sb = open();
        let base = committed_object(&sb, b"base");
        let t = sb.begin(IsolationLevel::ReadCommitted);
        let mut h = sb.open_lo(&t, base, LockMode::Exclusive).unwrap();
        h.write_at(0, b"torn").unwrap();
        h.close().unwrap();
        wal.arm();
        assert!(t.commit().is_err(), "the torn flush must fail the commit");
        let later = sb.begin(IsolationLevel::ReadCommitted);
        assert!(
            sb.create_lo(&later).is_err(),
            "an allocation queued past a poisoned log (group_commit={gc})"
        );
        drop(later);
        drop(sb);

        let sb2 = open();
        let ctx = format!("group_commit={gc}");
        assert_page_accounting(&backend, &[base], &ctx);
        assert_reads(&sb2, base, b"base", &ctx);
        // The recovered space commits again.
        let lo = committed_object(&sb2, b"after");
        assert_reads(&sb2, lo, b"after", &ctx);
    });
}
