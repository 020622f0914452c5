//! `durable_dml`: auto-commit single-row statements on a file-backed
//! space whose pool holds the whole store, under group commit and a
//! background checkpointer.
//!
//! Each client owns the rows whose id is congruent to its index, so
//! it knows every owned row's current extent. Keyed statements address
//! a row as `id = k AND Equal(Time_Extent, '<current extent>')`: the
//! `Equal` conjunct lets the planner route the statement through the
//! GR-tree (the paper's beginscan/getnext/delete sequence) instead of a
//! heap scan. Inserts and deletes have equal shares, so the table size
//! stays level.

use crate::driver::{fold, timed, Client, Rng, Step, DIGEST_SEED};
use crate::engine::{err, exec, ids_of, is_contention, Engine, Store};
use grt_ids::Connection;
use grt_sbspace::SbspaceOptions;
use grt_temporal::{Day, TimeExtent, VtEnd};
use grt_workload::{History, HistoryParams};
use std::path::Path;
use std::time::Duration;

/// Rows loaded before the run (history insertions).
pub const ROWS: usize = 4_000;
/// A pool that holds the whole store, so no statement faults.
pub const POOL_PAGES: usize = 8_192;
/// Background checkpoint cadence: a run spans several checkpoints.
/// Each checkpoint recycles WAL segments while holding the WAL lock,
/// which stalls the commits queued behind it for tens of ms; at 5 s
/// those stalled commits stay well under 1% of the statements, so the
/// p99 does not hinge on how long one recycle happened to take.
pub const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(5);

pub struct Data {
    pub rows: Vec<(u64, TimeExtent)>,
    pub ct: Day,
}

pub fn generate(seed: u64, rows: usize) -> Data {
    let h = History::generate(HistoryParams {
        inserts: rows,
        seed,
        ..Default::default()
    });
    Data {
        rows: h.final_state(),
        ct: h.end,
    }
}

pub fn options(checkpoint_interval: Option<Duration>) -> SbspaceOptions {
    SbspaceOptions {
        pool_pages: POOL_PAGES,
        group_commit: true,
        checkpoint_interval,
        ..Default::default()
    }
}

pub fn build(data: &Data, dir: &Path, opts: SbspaceOptions) -> Result<Engine, String> {
    let engine = Engine::boot(&Store::File(dir.to_path_buf()), opts, data.ct)?;
    engine.load(&data.rows)?;
    Ok(engine)
}

pub struct DmlClient {
    conn: Connection,
    id: u64,
    clients: u64,
    rng: Rng,
    ct: Day,
    /// Owned live rows and their current extents.
    pub live: Vec<(u64, TimeExtent)>,
    next_id: u64,
    digest: u64,
}

impl DmlClient {
    pub fn new(engine: &Engine, data: &Data, seed: u64, id: u64, clients: u64) -> DmlClient {
        let live: Vec<(u64, TimeExtent)> = data
            .rows
            .iter()
            .copied()
            .filter(|(k, _)| k % clients == id)
            .collect();
        let max = data.rows.iter().map(|(k, _)| *k).max().unwrap_or(0);
        DmlClient {
            conn: engine.db.connect(),
            id,
            clients,
            rng: Rng::new(seed, id),
            ct: data.ct,
            live,
            // The first id above every loaded row that this client owns.
            next_id: (max + 1).next_multiple_of(clients) + id,
            digest: DIGEST_SEED,
        }
    }

    /// A fresh extent inserted at the fixed current time.
    fn extent(&mut self) -> TimeExtent {
        let vt_begin = self.ct.plus(-(self.rng.below(31) as i32));
        let vt_end = if self.rng.below(2) == 0 {
            VtEnd::Now
        } else {
            VtEnd::Ground(vt_begin.plus(1 + self.rng.below(120) as i32))
        };
        TimeExtent::insert(self.ct, vt_begin, vt_end).expect("legal extent")
    }

    fn key(k: u64, e: &TimeExtent) -> String {
        format!("id = {k} AND Equal(Time_Extent, '{e}')")
    }
}

impl Client for DmlClient {
    fn step(&mut self, op: u64) -> Result<Step, String> {
        let stmt = (self.id + 1) << 40 | op;
        let mut roll = self.rng.below(100);
        if self.live.is_empty() {
            roll = 20; // nothing owned to address: insert
        }
        let pick = self.rng.below(self.live.len().max(1) as u64) as usize;
        let (sql, write) = match roll {
            0..=19 => {
                let (k, e) = self.live[pick];
                let sql = format!("SELECT id FROM t WHERE {}", Self::key(k, &e));
                let (r, ns) = timed(stmt, || exec(&self.conn, &sql));
                return match r {
                    Ok(r) if ids_of(&r)? == [k] => {
                        fold(&mut self.digest, &[k]);
                        Ok(Step::Done { ns, write: false })
                    }
                    Ok(r) => Err(format!("{sql}: got ids {:?}", ids_of(&r)?)),
                    Err(e) if is_contention(&e) => Ok(Step::Failed { write: false }),
                    Err(e) => Err(format!("{sql}: {e}")),
                };
            }
            20..=44 => {
                let (k, e) = (self.next_id, self.extent());
                self.next_id += self.clients;
                (
                    format!("INSERT INTO t VALUES ({k}, '{e}')"),
                    (k, Some(e), None),
                )
            }
            45..=69 => {
                let (k, e) = self.live[pick];
                let sql = format!("DELETE FROM t WHERE {}", Self::key(k, &e));
                (sql, (k, None, Some(pick)))
            }
            _ => {
                let (k, old) = self.live[pick];
                let new = self.extent();
                let sql = format!(
                    "UPDATE t SET Time_Extent = '{new}' WHERE {}",
                    Self::key(k, &old)
                );
                (sql, (k, Some(new), Some(pick)))
            }
        };
        let (r, ns) = timed(stmt, || exec(&self.conn, &sql));
        fold(&mut self.digest, &[op, u64::from(r.is_ok())]);
        match r {
            Ok(_) => {
                // Apply the committed change to the client's own model.
                let (k, new, slot) = write;
                match (new, slot) {
                    (Some(e), None) => self.live.push((k, e)),
                    (None, Some(i)) => {
                        self.live.swap_remove(i);
                    }
                    (Some(e), Some(i)) => self.live[i] = (k, e),
                    (None, None) => unreachable!("every write inserts, deletes or updates"),
                }
                Ok(Step::Done { ns, write: true })
            }
            Err(e) if is_contention(&e) => Ok(Step::Failed { write: true }),
            Err(e) => Err(format!("{sql}: {e}")),
        }
    }

    fn digest(&self) -> u64 {
        let mut live = self.live.clone();
        live.sort_unstable_by_key(|(k, _)| *k);
        let mut digest = self.digest;
        for (k, e) in live {
            fold(&mut digest, &[k]);
            fold(&mut digest, &e.encode_array().map(u64::from));
        }
        digest
    }
}

/// The end-of-run check: every client-tracked live `(id, extent)` is
/// found through the index, the table holds exactly the tracked rows,
/// no lock is held, and no snapshot is left open.
pub fn verify(engine: &Engine, clients: &[DmlClient]) -> Result<usize, String> {
    let conn = engine.db.connect();
    let mut want = Vec::new();
    for c in clients {
        for (k, e) in &c.live {
            let sql = format!("SELECT id FROM t WHERE {}", DmlClient::key(*k, e));
            let got = ids_of(&conn.exec(&sql).map_err(err)?)?;
            if got != [*k] {
                return Err(format!("{sql}: the index returned {got:?}"));
            }
            want.push(*k);
        }
    }
    want.sort_unstable();
    let all = ids_of(&conn.exec("SELECT id FROM t").map_err(err)?)?;
    if all != want {
        return Err(format!(
            "the table holds {} rows, the clients track {}",
            all.len(),
            want.len()
        ));
    }
    drop(conn);
    if !engine.space.locks_quiescent() {
        return Err("locks are still held after the run".into());
    }
    let open = engine.db.metrics_snapshot().gauge("sbspace.snapshots_open");
    if open != 0 {
        return Err(format!("{open} snapshots are still open after the run"));
    }
    Ok(want.len())
}
