//! Write-ahead log: redo images plus allocation notes for compensation,
//! stored as a sequence of fixed-size segments.
//!
//! The log carries five kinds of information:
//!
//! * `MetaImage` — a full after-image of a *space metadata* page (the
//!   header, free-list pages). Meta operations are system transactions:
//!   their images are replayed unconditionally, in log order. Metadata
//!   pages are mostly zeros, so the image is encoded only up to its last
//!   non-zero byte and zero-padded again on decode.
//! * `PageImage` — a full after-image of a *data* page written by a user
//!   transaction. Replayed only if that transaction committed (no-steal
//!   buffering means uncommitted data images never reach the log in the
//!   first place, but the rule is enforced anyway).
//! * `AllocNote` — pages a transaction allocated. If the transaction
//!   neither commits nor aborts (a crash), recovery frees these pages,
//!   mirroring the online abort path's compensation.
//! * `RetireNote` — pages a transaction superseded by shadow-paging
//!   copy-out (or dropped LOs). Online they are freed only after the
//!   commit point, once no snapshot can reference them; recovery frees
//!   them for transactions that **did** commit, since a crash ends
//!   every snapshot.
//! * `Checkpoint` — written by the fuzzy checkpointer after it has
//!   flushed every committed-dirty frame and synced the backend. It
//!   carries the retired pages still pinned by open snapshots at that
//!   moment, so a crash after older `RetireNote`s are recycled still
//!   frees them (they replay exactly like committed retire notes).
//! * `Begin` / `Commit` / `Abort` — transaction status.
//!
//! Records are length-prefixed with a simple checksum; a torn tail is
//! truncated at the first bad record, as a real log would. With
//! segmentation a torn tail is legal **only in the youngest segment** —
//! older segments were sealed by a roll, so an undecodable byte there
//! is real corruption, not a crash artefact.
//!
//! A [`WalStore`] appends to its *active* segment and rolls to a fresh
//! one when the active segment is full; one append never spans two
//! segments, so each segment is independently stream-decodable. The
//! checkpointer recycles every segment wholly below the active-
//! transaction low-water mark, which is what bounds the log.

use crate::page::{PageBuf, PAGE_SIZE};
use crate::txn::TxnId;
use crate::{Result, SbError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A user transaction started.
    Begin { txn: TxnId },
    /// Redo image of a data page, owned by `txn`.
    PageImage { txn: TxnId, pid: u32, data: PageBuf },
    /// Redo image of a metadata page (always replayed).
    MetaImage { pid: u32, data: PageBuf },
    /// Pages allocated by `txn`, to be freed if it never finishes.
    AllocNote { txn: TxnId, pages: Vec<u32> },
    /// Pages `txn` retired (shadow-paging copy-out, truncation, LO
    /// drop), to be freed if it committed but crashed before its
    /// deferred reclamation reached the free list.
    RetireNote { txn: TxnId, pages: Vec<u32> },
    /// The transaction committed (its page images are durable intent).
    Commit { txn: TxnId },
    /// The transaction aborted and its compensation has been applied.
    Abort { txn: TxnId },
    /// A fuzzy checkpoint completed: all committed frames were flushed
    /// and the backend synced. `pending_retire` lists retired pages
    /// still held by open snapshots — recovery frees them like
    /// committed retire notes (a crash ends every snapshot), so
    /// recycling the segments that held the original notes loses
    /// nothing.
    Checkpoint { pending_retire: Vec<u32> },
}

const K_BEGIN: u8 = 1;
const K_PAGE: u8 = 2;
const K_META: u8 = 3;
const K_ALLOC: u8 = 4;
const K_COMMIT: u8 = 5;
const K_ABORT: u8 = 6;
const K_RETIRE: u8 = 7;
const K_CKPT: u8 = 8;

fn checksum(bytes: &[u8]) -> u32 {
    // FNV-1a, cheap and adequate for torn-write detection.
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl WalRecord {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Begin { txn } => {
                out.push(K_BEGIN);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            WalRecord::PageImage { txn, pid, data } => {
                out.push(K_PAGE);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&data[..]);
            }
            WalRecord::MetaImage { pid, data } => {
                out.push(K_META);
                out.extend_from_slice(&pid.to_le_bytes());
                let used = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                out.extend_from_slice(&data[..used]);
            }
            WalRecord::AllocNote { txn, pages } => {
                out.push(K_ALLOC);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            WalRecord::RetireNote { txn, pages } => {
                out.push(K_RETIRE);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            WalRecord::Commit { txn } => {
                out.push(K_COMMIT);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            WalRecord::Abort { txn } => {
                out.push(K_ABORT);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            WalRecord::Checkpoint { pending_retire } => {
                out.push(K_CKPT);
                out.extend_from_slice(&(pending_retire.len() as u32).to_le_bytes());
                for p in pending_retire {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
        out
    }

    /// Serialises with framing: `len | checksum | body`.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord> {
        let bad = || SbError::Corrupt("truncated wal record body".into());
        let kind = *body.first().ok_or_else(bad)?;
        let rest = &body[1..];
        let u64_at = |off: usize| -> Result<u64> {
            rest.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(bad)
        };
        let u32_at = |off: usize| -> Result<u32> {
            rest.get(off..off + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(bad)
        };
        let page_at = |off: usize| -> Result<PageBuf> {
            let slice = rest.get(off..off + PAGE_SIZE).ok_or_else(bad)?;
            Ok(crate::page::page_from_slice(slice))
        };
        match kind {
            K_BEGIN => Ok(WalRecord::Begin {
                txn: TxnId(u64_at(0)?),
            }),
            K_PAGE => Ok(WalRecord::PageImage {
                txn: TxnId(u64_at(0)?),
                pid: u32_at(8)?,
                data: page_at(12)?,
            }),
            K_META => {
                // A trimmed image: whatever follows the pid, up to a page.
                let image = rest
                    .get(4..)
                    .filter(|b| b.len() <= PAGE_SIZE)
                    .ok_or_else(bad)?;
                Ok(WalRecord::MetaImage {
                    pid: u32_at(0)?,
                    data: crate::page::page_from_slice(image),
                })
            }
            K_ALLOC => {
                let txn = TxnId(u64_at(0)?);
                let n = u32_at(8)? as usize;
                let mut pages = Vec::with_capacity(n);
                for i in 0..n {
                    pages.push(u32_at(12 + 4 * i)?);
                }
                Ok(WalRecord::AllocNote { txn, pages })
            }
            K_RETIRE => {
                let txn = TxnId(u64_at(0)?);
                let n = u32_at(8)? as usize;
                let mut pages = Vec::with_capacity(n);
                for i in 0..n {
                    pages.push(u32_at(12 + 4 * i)?);
                }
                Ok(WalRecord::RetireNote { txn, pages })
            }
            K_COMMIT => Ok(WalRecord::Commit {
                txn: TxnId(u64_at(0)?),
            }),
            K_ABORT => Ok(WalRecord::Abort {
                txn: TxnId(u64_at(0)?),
            }),
            K_CKPT => {
                let n = u32_at(0)? as usize;
                let mut pending_retire = Vec::with_capacity(n);
                for i in 0..n {
                    pending_retire.push(u32_at(4 + 4 * i)?);
                }
                Ok(WalRecord::Checkpoint { pending_retire })
            }
            other => Err(SbError::Corrupt(format!("unknown wal record kind {other}"))),
        }
    }

    /// Decodes the record stream, stopping cleanly at a torn tail.
    pub fn decode_stream(bytes: &[u8]) -> Vec<WalRecord> {
        Self::decode_segment(bytes).0
    }

    /// Decodes one segment's record stream, reporting whether every
    /// byte decoded (`true`) or the stream ended in a torn/corrupt
    /// tail (`false`). A sealed (non-youngest) segment must decode
    /// cleanly — an unclean tail there is corruption, not a crash.
    pub fn decode_segment(mut bytes: &[u8]) -> (Vec<WalRecord>, bool) {
        let mut out = Vec::new();
        loop {
            if bytes.is_empty() {
                return (out, true);
            }
            if bytes.len() < 8 {
                return (out, false);
            }
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            if bytes.len() < 8 + len {
                return (out, false); // torn tail
            }
            let body = &bytes[8..8 + len];
            if checksum(body) != sum {
                return (out, false); // torn or corrupt tail
            }
            match WalRecord::decode_body(body) {
                Ok(r) => out.push(r),
                Err(_) => return (out, false),
            }
            bytes = &bytes[8 + len..];
        }
    }
}

/// Where the log bytes live: an ordered sequence of segments, the
/// youngest of which (the *active* segment) receives appends.
///
/// One append call never spans segments — [`WalStore::append`] rolls
/// *before* writing when the batch would overflow the active segment —
/// so every sealed segment is a self-contained record stream. Simple
/// test doubles can ignore segmentation entirely: the provided
/// defaults model a single never-rolling segment `0`.
pub trait WalStore: Send + Sync {
    /// Appends raw bytes to the active segment, rolling first if the
    /// segment is non-empty and the bytes would overflow it.
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Durably flushes appended bytes (the active segment; sealed
    /// segments were synced when they were rolled away from).
    fn sync(&self) -> Result<()>;
    /// Empties the log entirely (end of recovery).
    fn truncate(&self) -> Result<()>;
    /// Reads one segment's bytes.
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>>;
    /// Segment ids in append order, the active segment last.
    fn segments(&self) -> Result<Vec<u64>> {
        Ok(vec![0])
    }
    /// The segment id the next append (absent a roll) lands in. Reading
    /// it *before* appending yields a valid lower bound on where the
    /// append lands — ids only grow.
    fn active_segment(&self) -> u64 {
        0
    }
    /// Seals the active segment and opens a fresh one, returning the
    /// new active id. A no-op (returning the current id) when the
    /// active segment is already empty.
    fn roll(&self) -> Result<u64> {
        Ok(self.active_segment())
    }
    /// Deletes every segment with id strictly below `seg`, returning
    /// how many were removed. The active segment is never below any
    /// low-water mark a checkpoint computes, so it is never recycled.
    fn recycle_below(&self, _seg: u64) -> Result<usize> {
        Ok(0)
    }
    /// Total bytes across all live segments.
    fn live_bytes(&self) -> Result<u64> {
        let mut total = 0u64;
        for seg in self.segments()? {
            total += self.read_segment(seg)?.len() as u64;
        }
        Ok(total)
    }
    /// Monotonic count of bytes ever appended (not reduced by recycle
    /// or truncate). The background checkpointer uses it to skip ticks
    /// where nothing was logged. Stores that do not track it return 0,
    /// which reads as "never any new work".
    fn appended_total(&self) -> u64 {
        0
    }
    /// Reads the concatenation of every live segment (tests and small
    /// tools; recovery streams per segment instead).
    fn read_all(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for seg in self.segments()? {
            out.extend_from_slice(&self.read_segment(seg)?);
        }
        Ok(out)
    }
}

impl<W: WalStore> WalStore for std::sync::Arc<W> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        (**self).append(bytes)
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn truncate(&self) -> Result<()> {
        (**self).truncate()
    }
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
        (**self).read_segment(seg)
    }
    fn segments(&self) -> Result<Vec<u64>> {
        (**self).segments()
    }
    fn active_segment(&self) -> u64 {
        (**self).active_segment()
    }
    fn roll(&self) -> Result<u64> {
        (**self).roll()
    }
    fn recycle_below(&self, seg: u64) -> Result<usize> {
        (**self).recycle_below(seg)
    }
    fn live_bytes(&self) -> Result<u64> {
        (**self).live_bytes()
    }
    fn appended_total(&self) -> u64 {
        (**self).appended_total()
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        (**self).read_all()
    }
}

/// Default segment size: 1 MiB. Big enough that a burst of page-image
/// batches amortises the roll, small enough that recycling visibly
/// bounds the log in tests.
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

struct MemWalState {
    segments: BTreeMap<u64, Vec<u8>>,
    active: u64,
}

/// In-memory segmented log (for tests and benchmarks; "crash" = reopen
/// the space over the same backend and log).
pub struct MemWal {
    state: Mutex<MemWalState>,
    segment_bytes: usize,
    appended: AtomicU64,
}

impl Default for MemWal {
    fn default() -> Self {
        MemWal::new()
    }
}

impl MemWal {
    /// Creates an empty in-memory log with the default segment size.
    pub fn new() -> MemWal {
        MemWal::with_segment_bytes(DEFAULT_SEGMENT_BYTES)
    }

    /// Creates an empty in-memory log that rolls at `segment_bytes`.
    pub fn with_segment_bytes(segment_bytes: usize) -> MemWal {
        MemWal {
            state: Mutex::new(MemWalState {
                segments: BTreeMap::from([(0, Vec::new())]),
                active: 0,
            }),
            segment_bytes: segment_bytes.max(1),
            appended: AtomicU64::new(0),
        }
    }
}

impl WalStore for MemWal {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        let len = st.segments[&st.active].len();
        if len > 0 && len + bytes.len() > self.segment_bytes {
            let next = st.active + 1;
            st.segments.insert(next, Vec::new());
            st.active = next;
        }
        let active = st.active;
        st.segments
            .get_mut(&active)
            .expect("active segment exists")
            .extend_from_slice(bytes);
        self.appended
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn truncate(&self) -> Result<()> {
        let mut st = self.state.lock();
        let active = st.active;
        st.segments = BTreeMap::from([(active, Vec::new())]);
        Ok(())
    }
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
        self.state
            .lock()
            .segments
            .get(&seg)
            .cloned()
            .ok_or_else(|| SbError::NotFound(format!("wal segment {seg}")))
    }
    fn segments(&self) -> Result<Vec<u64>> {
        Ok(self.state.lock().segments.keys().copied().collect())
    }
    fn active_segment(&self) -> u64 {
        self.state.lock().active
    }
    fn roll(&self) -> Result<u64> {
        let mut st = self.state.lock();
        if st.segments[&st.active].is_empty() {
            return Ok(st.active);
        }
        let next = st.active + 1;
        st.segments.insert(next, Vec::new());
        st.active = next;
        Ok(next)
    }
    fn recycle_below(&self, seg: u64) -> Result<usize> {
        let mut st = self.state.lock();
        let keep = st.segments.split_off(&seg);
        let removed = st.segments.len();
        st.segments = keep;
        debug_assert!(st.segments.contains_key(&st.active));
        Ok(removed)
    }
    fn live_bytes(&self) -> Result<u64> {
        Ok(self
            .state
            .lock()
            .segments
            .values()
            .map(|s| s.len() as u64)
            .sum())
    }
    fn appended_total(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

struct FileWalState {
    /// Live segment ids, ascending; the last is the active one.
    ids: Vec<u64>,
    active: File,
    active_len: u64,
}

/// File-backed segmented log: a directory of `seg-<id>.log` files.
pub struct FileWal {
    dir: PathBuf,
    segment_bytes: usize,
    state: Mutex<FileWalState>,
    appended: AtomicU64,
}

impl FileWal {
    /// Opens (or creates) a segmented log in directory `dir` with the
    /// default segment size.
    pub fn open(dir: &Path) -> Result<FileWal> {
        FileWal::open_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (or creates) a segmented log in `dir` rolling at
    /// `segment_bytes`.
    pub fn open_with(dir: &Path, segment_bytes: usize) -> Result<FileWal> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SbError::Io(format!("create wal dir {}: {e}", dir.display())))?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| SbError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| SbError::Io(e.to_string()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".log"))
                .and_then(|r| r.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        if ids.is_empty() {
            ids.push(0);
        }
        let active_id = *ids.last().expect("at least one segment");
        let path = Self::seg_path(dir, active_id);
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| SbError::Io(format!("open wal {}: {e}", path.display())))?;
        let active_len = active
            .seek(SeekFrom::End(0))
            .map_err(|e| SbError::Io(e.to_string()))?;
        Ok(FileWal {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(1),
            state: Mutex::new(FileWalState {
                ids,
                active,
                active_len,
            }),
            appended: AtomicU64::new(0),
        })
    }

    fn seg_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("seg-{id:010}.log"))
    }

    /// Seals the active segment (durably) and opens the next one. Call
    /// with the state lock held.
    fn roll_locked(&self, st: &mut FileWalState) -> Result<u64> {
        // Sealed segments must be fully durable: the per-commit `sync`
        // only covers the active file.
        st.active
            .sync_data()
            .map_err(|e| SbError::Io(e.to_string()))?;
        let next = st.ids.last().expect("nonempty") + 1;
        let path = Self::seg_path(&self.dir, next);
        let active = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| SbError::Io(format!("open wal {}: {e}", path.display())))?;
        st.ids.push(next);
        st.active = active;
        st.active_len = 0;
        Ok(next)
    }
}

impl WalStore for FileWal {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        if st.active_len > 0 && st.active_len + bytes.len() as u64 > self.segment_bytes as u64 {
            self.roll_locked(&mut st)?;
        }
        st.active
            .seek(SeekFrom::End(0))
            .map_err(|e| SbError::Io(e.to_string()))?;
        st.active
            .write_all(bytes)
            .map_err(|e| SbError::Io(e.to_string()))?;
        st.active_len += bytes.len() as u64;
        self.appended
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        self.state
            .lock()
            .active
            .sync_data()
            .map_err(|e| SbError::Io(e.to_string()))
    }
    fn truncate(&self) -> Result<()> {
        let mut st = self.state.lock();
        let active_id = *st.ids.last().expect("nonempty");
        for &id in st.ids.iter().filter(|&&id| id != active_id) {
            let path = Self::seg_path(&self.dir, id);
            std::fs::remove_file(&path)
                .map_err(|e| SbError::Io(format!("remove wal {}: {e}", path.display())))?;
        }
        st.ids = vec![active_id];
        st.active
            .set_len(0)
            .map_err(|e| SbError::Io(e.to_string()))?;
        st.active_len = 0;
        st.active
            .sync_data()
            .map_err(|e| SbError::Io(e.to_string()))
    }
    fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
        let st = self.state.lock();
        if !st.ids.contains(&seg) {
            return Err(SbError::NotFound(format!("wal segment {seg}")));
        }
        // The active file's cursor floats with appends; reading via a
        // fresh handle leaves it alone.
        let path = Self::seg_path(&self.dir, seg);
        let mut f = File::open(&path)
            .map_err(|e| SbError::Io(format!("read wal {}: {e}", path.display())))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)
            .map_err(|e| SbError::Io(e.to_string()))?;
        Ok(buf)
    }
    fn segments(&self) -> Result<Vec<u64>> {
        Ok(self.state.lock().ids.clone())
    }
    fn active_segment(&self) -> u64 {
        *self.state.lock().ids.last().expect("nonempty")
    }
    fn roll(&self) -> Result<u64> {
        let mut st = self.state.lock();
        if st.active_len == 0 {
            return Ok(*st.ids.last().expect("nonempty"));
        }
        self.roll_locked(&mut st)
    }
    fn recycle_below(&self, seg: u64) -> Result<usize> {
        // The ids leave the list under the lock; the unlinks run after
        // it is released, so appends (and the commits waiting on them)
        // never stall behind file-system work.
        let doomed: Vec<u64> = {
            let mut st = self.state.lock();
            let below = st.ids.partition_point(|&id| id < seg);
            st.ids.drain(..below).collect()
        };
        // Removal failure leaves a stale file that the next recycle
        // retries: its id goes back to the front of the list (every
        // live id is above it). Losing the count is worse than leaking
        // one segment briefly.
        let failed: Vec<u64> = doomed
            .iter()
            .copied()
            .filter(|&id| std::fs::remove_file(Self::seg_path(&self.dir, id)).is_err())
            .collect();
        let removed = doomed.len() - failed.len();
        if !failed.is_empty() {
            let mut st = self.state.lock();
            st.ids.splice(..0, failed);
        }
        Ok(removed)
    }
    fn live_bytes(&self) -> Result<u64> {
        // Sealed segments never change, so they are sized after the
        // lock is released.
        let (active_len, sealed) = {
            let st = self.state.lock();
            (st.active_len, st.ids[..st.ids.len() - 1].to_vec())
        };
        let sealed_len: u64 = sealed
            .iter()
            .map(|&id| {
                std::fs::metadata(Self::seg_path(&self.dir, id))
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .sum();
        Ok(active_len + sealed_len)
    }
    fn appended_total(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_from_slice;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: TxnId(7) },
            WalRecord::AllocNote {
                txn: TxnId(7),
                pages: vec![3, 4, 9],
            },
            WalRecord::MetaImage {
                pid: 0,
                data: page_from_slice(b"header"),
            },
            WalRecord::PageImage {
                txn: TxnId(7),
                pid: 3,
                data: page_from_slice(b"node"),
            },
            WalRecord::RetireNote {
                txn: TxnId(7),
                pages: vec![2],
            },
            WalRecord::Commit { txn: TxnId(7) },
            WalRecord::Abort { txn: TxnId(8) },
            WalRecord::Checkpoint {
                pending_retire: vec![11, 12],
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        let (got, clean) = WalRecord::decode_segment(&bytes);
        assert!(clean);
        assert_eq!(got, recs);
    }

    #[test]
    fn meta_images_are_trimmed_and_full_images_still_decode() {
        let mut data = page_from_slice(b"header");
        data[100] = 9;
        let rec = WalRecord::MetaImage { pid: 0, data };
        // Frame (8) + kind (1) + pid (4) + the 101 bytes up to the last
        // non-zero one.
        assert_eq!(rec.encode().len(), 8 + 1 + 4 + 101);
        assert_eq!(WalRecord::decode_stream(&rec.encode()), vec![rec.clone()]);
        // A full-page image, as logs written before trimming hold.
        let WalRecord::MetaImage { pid, data } = &rec else {
            unreachable!()
        };
        let mut body = vec![K_META];
        body.extend_from_slice(&pid.to_le_bytes());
        body.extend_from_slice(&data[..]);
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&checksum(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        assert_eq!(WalRecord::decode_stream(&framed), vec![rec]);
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        // Chop mid-record: only complete records survive, unclean.
        let cut = bytes.len() - 5;
        let (got, clean) = WalRecord::decode_segment(&bytes[..cut]);
        assert!(!clean);
        assert_eq!(got.len(), recs.len() - 1);
        assert_eq!(got[..], recs[..recs.len() - 1]);
    }

    #[test]
    fn corrupt_checksum_stops_decode() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        // Flip a byte inside the second record's body.
        let first_len = recs[0].encode().len();
        bytes[first_len + 10] ^= 0xff;
        let (got, clean) = WalRecord::decode_segment(&bytes);
        assert!(!clean);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn empty_segment_is_clean() {
        let (got, clean) = WalRecord::decode_segment(&[]);
        assert!(clean);
        assert!(got.is_empty());
    }

    #[test]
    fn mem_wal_store_roundtrip() {
        let w = MemWal::new();
        w.append(b"abc").unwrap();
        w.append(b"def").unwrap();
        w.sync().unwrap();
        assert_eq!(w.read_all().unwrap(), b"abcdef");
        assert_eq!(w.live_bytes().unwrap(), 6);
        assert_eq!(w.appended_total(), 6);
        w.truncate().unwrap();
        assert!(w.read_all().unwrap().is_empty());
        assert_eq!(w.appended_total(), 6, "truncate keeps the monotonic total");
    }

    #[test]
    fn mem_wal_rolls_and_never_splits_an_append() {
        let w = MemWal::with_segment_bytes(8);
        w.append(b"aaaa").unwrap(); // seg 0: 4 bytes
        w.append(b"bbbb").unwrap(); // fits exactly: seg 0 -> 8 bytes
        w.append(b"cccccc").unwrap(); // would overflow: rolls to seg 1
        assert_eq!(w.segments().unwrap(), vec![0, 1]);
        assert_eq!(w.read_segment(0).unwrap(), b"aaaabbbb");
        assert_eq!(w.read_segment(1).unwrap(), b"cccccc");
        // An oversized batch still lands whole (in its own segment).
        w.append(b"ddddddddddddd").unwrap();
        assert_eq!(w.read_segment(2).unwrap(), b"ddddddddddddd");
        assert_eq!(w.live_bytes().unwrap(), 8 + 6 + 13);
    }

    #[test]
    fn mem_wal_roll_and_recycle() {
        let w = MemWal::with_segment_bytes(1024);
        w.append(b"one").unwrap();
        assert_eq!(w.roll().unwrap(), 1);
        assert_eq!(w.roll().unwrap(), 1, "rolling an empty segment is a no-op");
        w.append(b"two").unwrap();
        assert_eq!(w.roll().unwrap(), 2);
        assert_eq!(w.segments().unwrap(), vec![0, 1, 2]);
        assert_eq!(w.recycle_below(2).unwrap(), 2);
        assert_eq!(w.segments().unwrap(), vec![2]);
        assert_eq!(w.active_segment(), 2);
        assert!(w.read_all().unwrap().is_empty());
        assert!(matches!(w.read_segment(0), Err(SbError::NotFound(_))));
    }

    #[test]
    fn file_wal_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sbwal-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let w = FileWal::open(&dir).unwrap();
            w.append(b"hello ").unwrap();
            w.append(b"wal").unwrap();
            w.sync().unwrap();
        }
        let w = FileWal::open(&dir).unwrap();
        assert_eq!(w.read_all().unwrap(), b"hello wal");
        w.append(b"!").unwrap();
        assert_eq!(w.read_all().unwrap(), b"hello wal!");
        assert_eq!(w.live_bytes().unwrap(), 10);
        w.truncate().unwrap();
        assert!(w.read_all().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_wal_segments_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("sbwal-seg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let w = FileWal::open_with(&dir, 8).unwrap();
            w.append(b"aaaa").unwrap();
            w.append(b"bbbbbb").unwrap(); // rolls to seg 1
            assert_eq!(w.roll().unwrap(), 2);
            w.append(b"cc").unwrap();
            assert_eq!(w.segments().unwrap(), vec![0, 1, 2]);
        }
        let w = FileWal::open_with(&dir, 8).unwrap();
        assert_eq!(w.segments().unwrap(), vec![0, 1, 2]);
        assert_eq!(w.active_segment(), 2);
        assert_eq!(w.read_segment(0).unwrap(), b"aaaa");
        assert_eq!(w.read_segment(1).unwrap(), b"bbbbbb");
        assert_eq!(w.read_segment(2).unwrap(), b"cc");
        assert_eq!(w.recycle_below(2).unwrap(), 2);
        assert_eq!(w.segments().unwrap(), vec![2]);
        assert_eq!(w.read_all().unwrap(), b"cc");
        // Appends continue into the surviving active segment.
        w.append(b"dd").unwrap();
        assert_eq!(w.read_all().unwrap(), b"ccdd");
        std::fs::remove_dir_all(&dir).ok();
    }
}
