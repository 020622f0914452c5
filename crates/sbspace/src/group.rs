//! The WAL's single ordered entry point: every record the space logs
//! — commit batches, aborts, metadata images, checkpoint records —
//! enters here and is appended in sequence order.
//!
//! A caller either *enqueues* a batch and moves on (metadata images and
//! allocation notes: durable once any later sync covers them), or
//! *commits* it, waiting until it is synced. The first waiter to find
//! no leader becomes the leader: it drains the queue — every batch up
//! to `max_batch` waited-for ones, no-wait batches riding free — appends
//! each batch separately (so segments roll at batch boundaries), issues
//! a single `sync`, and wakes the followers whose batches rode along.
//! Under a commit burst of `k` transactions this collapses `k` WAL
//! syncs into a handful, and a transaction's allocations cost no sync
//! of their own.
//!
//! Ordering is sound without extra coordination because sbspace holds
//! LO-level two-phase locks until after commit: two conflicting
//! transactions can never be in the queue at once, so any queue order
//! of the non-conflicting residents is serialisable. Within the queue,
//! batches retain enqueue order (sequence numbers are handed out under
//! the same lock), so the log stream stays a valid history — and a
//! batch enqueued before a commit is durable no later than that commit.
//!
//! Buffer-pool frames holding metadata images are tagged with their
//! batch's sequence number and may reach the backend only once
//! [`GroupCommitter::durable_seq`] covers it (WAL before data). That
//! sequence advances only on a successful sync.
//!
//! If the leader's append or sync fails, every batch in that group
//! failed: the error is recorded against the group's sequence range and
//! returned to each affected committer. The committer also *poisons*
//! itself — a partial append may have left garbage at the log tail, and
//! appending more records past it would strand them beyond the torn
//! region where recovery cannot decode them — so every later enqueue
//! and commit fails too, until the space is reopened (which replays and
//! resets the log).

use crate::stats::IoStats;
use crate::wal::WalStore;
use crate::{Result, SbError};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Queued {
    seq: u64,
    bytes: Vec<u8>,
    /// A committer waits on this batch; only these count against
    /// `max_batch`.
    waited: bool,
}

struct State {
    /// Pending batches in enqueue order.
    queue: Vec<Queued>,
    next_seq: u64,
    /// Every batch with `seq <= done_seq` has been appended and synced
    /// (or failed — see `failed`).
    done_seq: u64,
    /// While a leader appends and syncs: the active segment when it
    /// started, a lower bound on where the in-flight group landed.
    inflight_seg: Option<u64>,
    /// Sequence ranges whose group flush failed, with the error.
    failed: Vec<(u64, u64, String)>,
    /// Set once any group flush fails: a partial append may have left
    /// garbage at the log tail, and appending past it would strand
    /// later records beyond the torn region where recovery's stream
    /// decoder cannot reach them. Every enqueue fails from then on.
    poisoned: Option<String>,
}

/// The group-commit coordinator (one per space).
pub(crate) struct GroupCommitter {
    state: Mutex<State>,
    cond: Condvar,
    max_batch: usize,
    /// Highest sequence appended *and* synced; shared with the buffer
    /// pool, which writes a metadata frame back only once this covers
    /// the frame's sequence.
    synced: Arc<AtomicU64>,
}

impl GroupCommitter {
    /// A coordinator flushing at most `max_batch` waited-for batches
    /// per group.
    pub fn new(max_batch: usize) -> GroupCommitter {
        GroupCommitter {
            state: Mutex::new(State {
                queue: Vec::new(),
                next_seq: 1,
                done_seq: 0,
                inflight_seg: None,
                failed: Vec::new(),
                poisoned: None,
            }),
            cond: Condvar::new(),
            max_batch: max_batch.max(1),
            synced: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The durable sequence as a shared cell (for the buffer pool).
    pub fn durable_seq(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.synced)
    }

    fn outcome(state: &State, seq: u64) -> Result<()> {
        for (lo, hi, msg) in &state.failed {
            if (*lo..=*hi).contains(&seq) {
                return Err(SbError::Io(format!("group commit failed: {msg}")));
            }
        }
        Ok(())
    }

    fn push(&self, bytes: Vec<u8>, waited: bool) -> Result<u64> {
        let mut state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(SbError::Io(format!("wal unavailable: {msg}")));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(Queued { seq, bytes, waited });
        Ok(seq)
    }

    /// Queues `batch` behind everything enqueued so far and returns its
    /// sequence number without waiting: the next sync — a commit's or a
    /// checkpoint's — makes it durable.
    pub fn enqueue(&self, batch: Vec<u8>) -> Result<u64> {
        self.push(batch, false)
    }

    /// Makes `batch` durable in the WAL, riding or leading a group.
    /// Returns once the batch is synced (or its group's flush failed).
    pub fn commit(&self, wal: &dyn WalStore, stats: &IoStats, batch: Vec<u8>) -> Result<()> {
        let seq = self.push(batch, true)?;
        self.wait_durable(wal, stats, seq)
    }

    /// Makes every batch enqueued so far durable.
    pub fn flush(&self, wal: &dyn WalStore, stats: &IoStats) -> Result<()> {
        let last = self.state.lock().next_seq - 1;
        self.wait_durable(wal, stats, last)
    }

    /// The oldest segment a batch not yet known synced can occupy: the
    /// in-flight group's first segment, else the active one (anything
    /// still queued lands there or later). A checkpoint keeps every
    /// segment from here on, because the frames those batches dirtied
    /// cannot be written back by its flush.
    pub fn unsynced_floor(&self, wal: &dyn WalStore) -> u64 {
        let state = self.state.lock();
        state.inflight_seg.unwrap_or_else(|| wal.active_segment())
    }

    fn wait_durable(&self, wal: &dyn WalStore, stats: &IoStats, seq: u64) -> Result<()> {
        let mut state = self.state.lock();
        loop {
            if state.done_seq >= seq {
                return Self::outcome(&state, seq);
            }
            if let Some(msg) = &state.poisoned {
                // A flush failed while this batch waited: the tail is
                // suspect and the batch will never be written.
                return Err(SbError::Io(format!("wal unavailable: {msg}")));
            }
            if state.inflight_seg.is_some() || state.queue.is_empty() {
                self.cond.wait(&mut state);
                continue;
            }
            // Lead: drain a group and flush it outside the lock.
            let mut take = 0;
            let mut commits = 0;
            for q in &state.queue {
                if q.waited {
                    if commits == self.max_batch {
                        break;
                    }
                    commits += 1;
                }
                take += 1;
            }
            let group: Vec<Queued> = state.queue.drain(..take).collect();
            let (lo, hi) = (group[0].seq, group[take - 1].seq);
            state.inflight_seg = Some(wal.active_segment());
            drop(state);

            let res = group
                .iter()
                .try_for_each(|q| wal.append(&q.bytes))
                .and_then(|()| wal.sync());
            IoStats::bump(&stats.wal_syncs);
            IoStats::bump(&stats.group_commits);

            state = self.state.lock();
            state.inflight_seg = None;
            state.done_seq = state.done_seq.max(hi);
            match &res {
                Ok(()) => self.synced.store(hi, Ordering::Release),
                Err(e) => {
                    // Kept forever: a follower may observe its range
                    // long after, and failed flushes are rare enough
                    // that the list stays tiny.
                    state.failed.push((lo, hi, e.to_string()));
                    state.poisoned = Some(e.to_string());
                }
            }
            self.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{MemWal, WalRecord};
    use crate::TxnId;
    use std::sync::Arc;

    #[test]
    fn burst_of_commits_shares_syncs() {
        let gc = Arc::new(GroupCommitter::new(32));
        let wal = Arc::new(MemWal::new());
        let stats = IoStats::new_shared();
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                let (gc, wal, stats, barrier) = (
                    Arc::clone(&gc),
                    Arc::clone(&wal),
                    Arc::clone(&stats),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    let batch = WalRecord::Commit { txn: TxnId(i) }.encode();
                    gc.commit(wal.as_ref(), &stats, batch).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All 16 commit records are durable...
        let records = WalRecord::decode_stream(&wal.read_all().unwrap());
        assert_eq!(records.len(), 16);
        // ...in strictly fewer syncs than committers (groups formed).
        let syncs = stats.snapshot().wal_syncs;
        assert!(syncs <= 16, "at most one sync per committer, got {syncs}");
        assert_eq!(stats.snapshot().group_commits, syncs);
    }

    #[test]
    fn single_commit_still_works() {
        let gc = GroupCommitter::new(8);
        let wal = MemWal::new();
        let stats = IoStats::new_shared();
        gc.commit(&wal, &stats, WalRecord::Commit { txn: TxnId(1) }.encode())
            .unwrap();
        let records = WalRecord::decode_stream(&wal.read_all().unwrap());
        assert_eq!(records, vec![WalRecord::Commit { txn: TxnId(1) }]);
        assert_eq!(stats.snapshot().wal_syncs, 1);
    }

    struct FailingWal;
    impl WalStore for FailingWal {
        fn append(&self, _bytes: &[u8]) -> Result<()> {
            Err(SbError::Io("disk full".into()))
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn read_segment(&self, _seg: u64) -> Result<Vec<u8>> {
            Ok(Vec::new())
        }
        fn truncate(&self) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failure_poisons_later_commits() {
        let gc = GroupCommitter::new(8);
        let stats = IoStats::new_shared();
        let first = gc.commit(
            &FailingWal,
            &stats,
            WalRecord::Commit { txn: TxnId(1) }.encode(),
        );
        assert!(matches!(first, Err(SbError::Io(_))));
        // The log tail is suspect: a later commit over a healthy WAL
        // must still fail rather than append past possible garbage.
        let wal = MemWal::new();
        let later = gc.commit(&wal, &stats, WalRecord::Commit { txn: TxnId(2) }.encode());
        assert!(matches!(later, Err(SbError::Io(_))), "{later:?}");
        assert!(wal.read_all().unwrap().is_empty());
    }

    #[test]
    fn leader_failure_reaches_every_rider() {
        let gc = Arc::new(GroupCommitter::new(32));
        let stats = IoStats::new_shared();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let (gc, stats, barrier) =
                    (Arc::clone(&gc), Arc::clone(&stats), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    gc.commit(
                        &FailingWal,
                        &stats,
                        WalRecord::Commit { txn: TxnId(i) }.encode(),
                    )
                })
            })
            .collect();
        for h in handles {
            let res = h.join().unwrap();
            assert!(matches!(res, Err(SbError::Io(_))), "{res:?}");
        }
    }

    #[test]
    fn enqueued_batch_lands_before_a_later_commit_in_one_sync() {
        let gc = GroupCommitter::new(8);
        let wal = MemWal::new();
        let stats = IoStats::new_shared();
        let note = WalRecord::AllocNote {
            txn: TxnId(1),
            pages: vec![5],
        };
        let seq = gc.enqueue(note.encode()).unwrap();
        // Queued, not appended: nothing is durable yet.
        assert!(wal.read_all().unwrap().is_empty());
        assert_eq!(gc.durable_seq().load(Ordering::Acquire), 0);
        gc.commit(&wal, &stats, WalRecord::Commit { txn: TxnId(1) }.encode())
            .unwrap();
        let records = WalRecord::decode_stream(&wal.read_all().unwrap());
        assert_eq!(records, vec![note, WalRecord::Commit { txn: TxnId(1) }]);
        assert_eq!(stats.snapshot().wal_syncs, 1, "one sync covered both");
        assert!(gc.durable_seq().load(Ordering::Acquire) > seq);
    }

    #[test]
    fn enqueue_after_poisoning_fails() {
        let gc = GroupCommitter::new(8);
        let stats = IoStats::new_shared();
        let first = gc.commit(
            &FailingWal,
            &stats,
            WalRecord::Commit { txn: TxnId(1) }.encode(),
        );
        assert!(matches!(first, Err(SbError::Io(_))));
        let queued = gc.enqueue(WalRecord::Abort { txn: TxnId(2) }.encode());
        assert!(matches!(queued, Err(SbError::Io(_))), "{queued:?}");
    }

    /// A WAL whose appends succeed but whose sync fails.
    struct SyncFailingWal(MemWal);
    impl WalStore for SyncFailingWal {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            self.0.append(bytes)
        }
        fn sync(&self) -> Result<()> {
            Err(SbError::Io("fsync failed".into()))
        }
        fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
            self.0.read_segment(seg)
        }
        fn truncate(&self) -> Result<()> {
            self.0.truncate()
        }
    }

    #[test]
    fn durable_seq_advances_only_on_successful_sync() {
        let gc = GroupCommitter::new(8);
        let stats = IoStats::new_shared();
        let durable = gc.durable_seq();
        let wal = MemWal::new();
        let a = gc
            .enqueue(WalRecord::Abort { txn: TxnId(1) }.encode())
            .unwrap();
        gc.flush(&wal, &stats).unwrap();
        assert_eq!(durable.load(Ordering::Acquire), a);
        // The next group appends but fails to sync: its batches are not
        // durable, so the sequence frames read must stay put.
        let b = gc
            .enqueue(WalRecord::Abort { txn: TxnId(2) }.encode())
            .unwrap();
        let res = gc.flush(&SyncFailingWal(MemWal::new()), &stats);
        assert!(matches!(res, Err(SbError::Io(_))), "{res:?}");
        assert!(b > a);
        assert_eq!(durable.load(Ordering::Acquire), a);
    }
}
