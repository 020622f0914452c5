//! Booting the engine under test with every wrapper in place, and the
//! shared table and load steps the workloads build on.

use crate::span::span;
use crate::wrap::{TracedAm, TracedBackend, TracedWal};
use grt_blade::{
    extent_to_value, install_grtree_blade, registration_script, uninstall_grtree_blade, GrTreeAm,
    GrTreeAmOptions,
};
use grt_ids::{Connection, Database, IdsError, QueryResult, Value};
use grt_sbspace::{
    FileBackend, FileWal, MemBackend, MemWal, Sbspace, SbspaceOptions, WalStore, PAGE_SIZE,
};
use grt_temporal::{Day, MockClock, TimeExtent};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where the space lives.
pub enum Store {
    /// `pages.db` plus a `wal/` directory under this path.
    File(PathBuf),
    Mem,
}

/// A booted database plus the handles the report reads.
pub struct Engine {
    pub db: Database,
    pub space: Sbspace,
    wal: Arc<dyn WalStore>,
}

impl Engine {
    /// Opens the space through the forwarding wrappers, boots the engine
    /// with its clock fixed at `ct`, and installs the GR-tree blade
    /// behind a forwarding access method. The handler binds at
    /// `CREATE SECONDARY ACCESS_METHOD`, so the stock install is undone
    /// and the registration script re-run against the wrapped library.
    pub fn boot(store: &Store, opts: SbspaceOptions, ct: Day) -> Result<Engine, String> {
        let wal: Arc<dyn WalStore> = match store {
            Store::File(dir) => {
                Arc::new(FileWal::open_with(&dir.join("wal"), opts.wal_segment_bytes).map_err(err)?)
            }
            Store::Mem => Arc::new(MemWal::with_segment_bytes(opts.wal_segment_bytes)),
        };
        let traced_wal = TracedWal(Arc::clone(&wal));
        let space = match store {
            Store::File(dir) => {
                let backend = FileBackend::open(&dir.join("pages.db")).map_err(err)?;
                Sbspace::open_with(TracedBackend(backend), traced_wal, opts)
            }
            Store::Mem => Sbspace::open_with(TracedBackend(MemBackend::new()), traced_wal, opts),
        }
        .map_err(err)?;
        let db = Database::with_space(space.clone(), Arc::new(MockClock::new(ct)));
        install_grtree_blade(&db, GrTreeAmOptions::default()).map_err(err)?;
        uninstall_grtree_blade(&db).map_err(err)?;
        let am = GrTreeAm::new(GrTreeAmOptions::default());
        db.install_library("grtree.bld", Arc::new(TracedAm(Arc::new(am))));
        db.connect()
            .exec_script(&registration_script())
            .map_err(err)?;
        Ok(Engine { db, space, wal })
    }

    /// Creates table `t`, loads `rows` in one transaction, builds the
    /// GR-tree index over them, and checkpoints.
    pub fn load(&self, rows: &[(u64, TimeExtent)]) -> Result<(), String> {
        let conn = self.db.connect();
        conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
            .map_err(err)?;
        conn.prepare("load", "INSERT INTO t VALUES (?, ?)")
            .map_err(err)?;
        conn.exec("BEGIN WORK").map_err(err)?;
        for (id, extent) in rows {
            conn.execute_values("load", &[Value::Int(*id as i64), extent_to_value(extent)])
                .map_err(err)?;
        }
        conn.exec("COMMIT WORK").map_err(err)?;
        conn.deallocate("load").map_err(err)?;
        conn.exec("CREATE INDEX t_grt ON t(Time_Extent grt_opclass) USING grtree_am")
            .map_err(err)?;
        self.space.checkpoint().map_err(err)
    }

    /// Pages in use (allocation watermark minus the free list).
    pub fn used_pages(&self) -> Result<u64, String> {
        let info = self.space.space_info().map_err(err)?;
        Ok(u64::from(info.total_pages - info.free_pages))
    }

    /// Settles the store once the clients are done: seals the active
    /// WAL segment and checkpoints, so the log keeps only what recovery
    /// still needs rather than however much of the last segment the run
    /// happened to fill.
    pub fn settle(&self) -> Result<(), String> {
        self.wal.roll().map_err(err)?;
        self.space.checkpoint().map_err(err)
    }

    /// Store footprint per live row: used pages plus live WAL bytes.
    pub fn store_bytes_per_row(&self, rows: usize) -> Result<f64, String> {
        let wal = self.space.wal_live_bytes().map_err(err)?;
        let bytes = self.used_pages()? * PAGE_SIZE as u64 + wal;
        Ok(bytes as f64 / rows.max(1) as f64)
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one client statement as the root span `ids.exec`.
pub fn exec(conn: &Connection, sql: &str) -> Result<QueryResult, IdsError> {
    let _s = span("ids.exec");
    conn.exec(sql)
}

/// True for the contention losses a statement may surface after the
/// engine's own retries; they count as failed, never as completed.
pub fn is_contention(e: &IdsError) -> bool {
    matches!(
        e,
        IdsError::Storage(grt_sbspace::SbError::LockTimeout(_) | grt_sbspace::SbError::Deadlock(_))
    )
}

/// The ids of a `SELECT id ...` result, sorted.
pub fn ids_of(r: &QueryResult) -> Result<Vec<u64>, String> {
    let mut ids = r
        .rows
        .iter()
        .map(|row| match row.first() {
            Some(Value::Int(n)) => Ok(*n as u64),
            other => Err(format!("expected an integer id, got {other:?}")),
        })
        .collect::<Result<Vec<u64>, String>>()?;
    ids.sort_unstable();
    Ok(ids)
}

/// A fresh directory for one setup, removed first if a previous run
/// left it behind.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err)?;
    }
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}
