//! In-memory span recorder for the traced run.
//!
//! A span carries its name, start, end, parent, thread and statement
//! id. The parent comes from a thread-local stack of open spans, so a
//! layer's *self* time is its duration minus the time its children
//! cover. Recording is off unless [`set_enabled`] turned it on; a
//! disabled [`span`] costs one relaxed atomic load, and the wrapped
//! layers take the same code paths either way.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the call moved: pages, bytes or rows, by span name.
    pub amount: u64,
    pub thread: u32,
    /// Client statement the span ran under (0 outside any statement).
    pub stmt: u64,
    /// The thread serves a client (a client loop or a server
    /// connection worker) rather than running background work.
    pub client_thread: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static STMT: Cell<u64> = const { Cell::new(0) };
    static THREAD: (u32, bool) = (
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        // Server connection workers run client statements too.
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("perfbench-client") || n == "grt-conn"),
    );
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// The recorded spans. A push cannot leave the list half-updated, so a
/// panic on another thread while it held the lock does not matter.
fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Marks the calling thread as running statement `id` (0 clears it).
pub fn set_statement(id: u64) {
    STMT.with(|s| s.set(id));
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    amount: u64,
}

impl Guard {
    /// Records what the call moved (pages, bytes or rows).
    pub fn amount(&mut self, n: usize) {
        self.amount = n as u64;
    }
}

/// Opens a span named `name`, or nothing when recording is off.
#[inline]
pub fn span(name: &'static str) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        amount: 0,
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order");
        });
        let (thread, client_thread) = THREAD.with(|t| *t);
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            amount: self.amount,
            thread,
            stmt: STMT.with(Cell::get),
            client_thread,
        };
        spans().push(span);
    }
}

/// Writes `spans` as tab-separated lines: id, parent, thread,
/// statement, name, start and end (ns since the recorder's epoch), and
/// amount.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tthread\tstmt\tname\tstart_ns\tend_ns\tamount"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.stmt, s.name, s.start_ns, s.end_ns, s.amount
        )?;
    }
    out.flush()
}
