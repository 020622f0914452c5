//! `wire_probe`: prepared point and narrow-window probes through
//! `RemoteDriver` connections to an in-process `grt-server` on
//! loopback. The database is in memory and fits the pool, so the cost
//! is client framing, server dispatch and the EXECUTE fast path.
//! Remote results must equal embedded results on the probe set.
//!
//! A point probe looks up one stored extent with `Equal`; a window
//! probe asks `Overlaps` over a two-day window. The history deletes a
//! little faster than it inserts, so few tuples are current at any
//! time and no seed grows a dense stretch that would make its slowest
//! probes, and so its p99, unlike another seed's.

use crate::driver::{fold, timed, Client, Rng, Step, DIGEST_SEED};
use crate::engine::{ids_of, Engine, Store};
use crate::span::span;
use grt_blade::extent_to_value;
use grt_client::{Driver, EmbeddedDriver, RemoteDriver};
use grt_ids::Value;
use grt_sbspace::SbspaceOptions;
use grt_server::{Server, ServerHandle, ServerOptions};
use grt_temporal::{Day, TimeExtent};
use grt_workload::{History, HistoryParams, QueryKind, QueryParams, QuerySet};
use std::sync::Arc;

/// Rows loaded (history insertions).
pub const ROWS: usize = 20_000;
/// A pool that holds the whole store.
pub const POOL_PAGES: usize = 4_096;
/// Deletions outpace insertions slightly, so the current population
/// stays small at every transaction time.
const DELETE_RATE: f64 = 0.52;
/// Distinct probes, alternating point and narrow window; enough that
/// the slowest 1% is dozens of probes, not a seed-specific handful.
const PROBES: usize = 4096;
/// Edge of a narrow window, days.
const WINDOW: i32 = 2;
/// The prepared probes, by name; each binds one extent.
pub const PROBE_SQL: [(&str, &str); 2] = [
    ("point", "SELECT id FROM t WHERE Equal(Time_Extent, ?)"),
    ("window", "SELECT id FROM t WHERE Overlaps(Time_Extent, ?)"),
];

pub struct Data {
    pub rows: Vec<(u64, TimeExtent)>,
    /// Probes as (index into [`PROBE_SQL`], bound extent).
    pub probes: Vec<(usize, TimeExtent)>,
    pub ct: Day,
}

pub fn generate(seed: u64, rows: usize) -> Data {
    let h = History::generate(HistoryParams {
        inserts: rows,
        delete_rate: DELETE_RATE,
        seed,
        ..Default::default()
    });
    let rows = h.final_state();
    let windows = QuerySet::generate(
        QueryParams {
            count: PROBES / 2,
            kind: QueryKind::Window,
            tt_range: (h.params.start, h.end),
            window: WINDOW,
            seed,
        },
        h.end,
    )
    .queries;
    // Its own stream, apart from any client's.
    let mut rng = Rng::new(seed, 1 << 16);
    let probes = windows
        .into_iter()
        .flat_map(|w| {
            let (_, stored) = rows[rng.below(rows.len() as u64) as usize];
            [(0, stored), (1, w)]
        })
        .collect();
    Data {
        rows,
        probes,
        ct: h.end,
    }
}

/// The served engine: the database plus the running server.
pub struct Served {
    pub engine: Engine,
    pub server: ServerHandle,
}

pub fn build(data: &Data) -> Result<Served, String> {
    let opts = SbspaceOptions {
        pool_pages: POOL_PAGES,
        ..Default::default()
    };
    let engine = Engine::boot(&Store::Mem, opts, data.ct)?;
    engine.load(&data.rows)?;
    let server = Server::new(engine.db.clone(), ServerOptions::default())
        .start()
        .map_err(|e| e.to_string())?;
    Ok(Served { engine, server })
}

/// Each probe's statement name, bound value, and the ids the embedded
/// path returns.
pub type Expected = Arc<Vec<(&'static str, Value, Vec<u64>)>>;

fn prepare_all(driver: &impl Driver) -> Result<(), String> {
    for (name, sql) in PROBE_SQL {
        driver.prepare(name, sql).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn expected(served: &Served, data: &Data) -> Result<Expected, String> {
    let embedded = EmbeddedDriver::connect(&served.engine.db);
    prepare_all(&embedded)?;
    let out = data
        .probes
        .iter()
        .map(|&(shape, extent)| {
            let (name, v) = (PROBE_SQL[shape].0, extent_to_value(&extent));
            let r = embedded
                .execute(name, std::slice::from_ref(&v))
                .map_err(|e| e.to_string())?;
            Ok((name, v, ids_of(&r)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Arc::new(out))
}

pub struct WireClient {
    pub driver: RemoteDriver,
    expected: Expected,
    id: u64,
    offset: usize,
    digest: u64,
}

impl WireClient {
    pub fn connect(served: &Served, expected: &Expected, id: u64) -> Result<WireClient, String> {
        let driver =
            RemoteDriver::connect(served.server.local_addr()).map_err(|e| e.to_string())?;
        prepare_all(&driver)?;
        Ok(WireClient {
            driver,
            expected: Arc::clone(expected),
            id,
            offset: (id as usize * 7919) % expected.len(),
            digest: DIGEST_SEED,
        })
    }
}

impl Client for WireClient {
    fn step(&mut self, op: u64) -> Result<Step, String> {
        let (name, arg, want) = &self.expected[(self.offset + op as usize) % self.expected.len()];
        let (r, ns) = timed((self.id + 1) << 40 | op, || {
            let _s = span("wire.client");
            self.driver.execute(name, std::slice::from_ref(arg))
        });
        match r {
            Ok(r) if &ids_of(&r)? == want => {
                fold(&mut self.digest, want);
                Ok(Step::Done { ns, write: false })
            }
            Ok(r) => Err(format!(
                "{name} probe {}: remote returned {} rows, embedded {}",
                (self.offset + op as usize) % self.expected.len(),
                r.rows.len(),
                want.len()
            )),
            Err(e) if e.is_contention() => Ok(Step::Failed { write: false }),
            Err(e) => Err(format!("{name} probe: {e}")),
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

/// Reads the server-side `ids.exec_ns` histogram (count, sum in ns)
/// through the wire `Metrics` request.
pub fn server_exec_ns(driver: &RemoteDriver) -> Result<(u64, u64), String> {
    let m = driver.metrics().map_err(|e| e.to_string())?;
    let get = |name: &str| {
        m.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let count = get("ids.exec_ns.count");
    Ok((count, count * get("ids.exec_ns.mean_ns")))
}
