//! `bitemporal_query`: ad-hoc `Overlaps` queries against a file-backed,
//! GR-tree-indexed table at least eight times the buffer pool.
//!
//! Rows are the final state of a generated history (half of the
//! insertions now-relative); queries mix the four classical shapes (see
//! [`MIX`]) with the clock fixed at the history's end. Every result is
//! compared with a brute-force `Overlaps` oracle over the generated
//! state.

use crate::driver::{fold, timed, Client, Step, DIGEST_SEED};
use crate::engine::{exec, ids_of, Engine, Store};
use grt_ids::Connection;
use grt_sbspace::SbspaceOptions;
use grt_temporal::{Day, Predicate, TimeExtent};
use grt_workload::{History, HistoryParams, QueryKind, QueryParams, QuerySet};
use std::path::Path;
use std::sync::Arc;

/// History insertions; the store they fill is ~8.5x the pool below.
pub const INSERTS: usize = 110_000;
/// The engine's default buffer pool.
pub const POOL_PAGES: usize = 256;
/// Probability of a logical deletion between insertions; with the
/// mix below the median answer is around a thousand rows.
pub const DELETE_RATE: f64 = 0.45;
/// Rounds of the query mix generated; a run of tens of seconds cycles
/// through the whole list, so its mean cost is that of the full set.
pub const ROUNDS: usize = 400;
/// Window edge, days, for `Window` and `CurrentState`.
const WINDOW: i32 = 20;
/// One round of the mix: each shape with its weight, and where in the
/// history's span (as a fraction) its time draws start.
/// Current-state queries cover the recent half of valid time: earlier,
/// whether any current tuple reaches back that far hinges on the one
/// oldest survivor, which would make the answer sizes, and so the
/// latency median, swing from seed to seed. Weighting them twice puts
/// the median statement inside that one seed-stable group.
const MIX: [(QueryKind, usize, f64); 4] = [
    (QueryKind::Window, 1, 0.0),
    (QueryKind::Point, 1, 0.0),
    (QueryKind::CurrentState, 2, 0.5),
    (QueryKind::TransactionTimeslice, 1, 0.0),
];

/// The generated inputs: stored rows and queries, all from the seed.
pub struct Data {
    pub rows: Vec<(u64, TimeExtent)>,
    pub queries: Vec<TimeExtent>,
    pub ct: Day,
}

pub fn generate(seed: u64, inserts: usize, rounds: usize) -> Data {
    let h = History::generate(HistoryParams {
        inserts,
        delete_rate: DELETE_RATE,
        now_relative_fraction: 0.5,
        seed,
        ..Default::default()
    });
    let span = f64::from(h.end.0 - h.params.start.0);
    let sets: Vec<Vec<TimeExtent>> = MIX
        .iter()
        .enumerate()
        .map(|(k, &(kind, weight, from))| {
            let params = QueryParams {
                count: rounds * weight,
                kind,
                tt_range: (h.params.start.plus((span * from) as i32), h.end),
                window: WINDOW,
                seed: seed.wrapping_mul(4).wrapping_add(k as u64 + 1),
            };
            QuerySet::generate(params, h.end).queries
        })
        .collect();
    // Interleave the shapes round by round, so every stretch of the run
    // sees the whole mix.
    let queries = (0..rounds)
        .flat_map(|r| {
            sets.iter()
                .zip(MIX)
                .flat_map(move |(set, (_, weight, _))| &set[r * weight..(r + 1) * weight])
        })
        .copied()
        .collect();
    Data {
        rows: h.final_state(),
        queries,
        ct: h.end,
    }
}

/// Boots a file-backed engine in `dir` and loads `data` into it.
pub fn build(data: &Data, dir: &Path, pool_pages: usize) -> Result<Engine, String> {
    let opts = SbspaceOptions {
        pool_pages,
        ..Default::default()
    };
    let engine = Engine::boot(&Store::File(dir.to_path_buf()), opts, data.ct)?;
    engine.load(&data.rows)?;
    Ok(engine)
}

/// A query's SQL text and its expected answer: the row count and a
/// digest of the sorted ids (a digest keeps the oracle small however
/// large the answers are).
pub struct Expected {
    pub sql: String,
    pub rows: usize,
    pub digest: u64,
}

pub type Oracle = Arc<Vec<Expected>>;

fn digest_of(ids: &[u64]) -> u64 {
    let mut d = DIGEST_SEED;
    fold(&mut d, ids);
    d
}

/// Brute-force `Overlaps` over the generated state, on two threads.
pub fn oracle(data: &Data) -> Oracle {
    let half = data.queries.len().div_ceil(2);
    let answers = std::thread::scope(|s| {
        let parts: Vec<_> = data
            .queries
            .chunks(half.max(1))
            .map(|chunk| s.spawn(move || answer(data, chunk)))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    Arc::new(answers)
}

fn answer(data: &Data, queries: &[TimeExtent]) -> Vec<Expected> {
    queries
        .iter()
        .map(|q| {
            let sql = format!("SELECT id FROM t WHERE Overlaps(Time_Extent, '{q}')");
            let mut ids: Vec<u64> = data
                .rows
                .iter()
                .filter(|(_, e)| Predicate::Overlaps.eval(e, q, data.ct))
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            Expected {
                sql,
                rows: ids.len(),
                digest: digest_of(&ids),
            }
        })
        .collect()
}

pub struct QueryClient {
    conn: Connection,
    oracle: Oracle,
    id: u64,
    /// Where this client starts in the shared query list.
    offset: usize,
    digest: u64,
}

impl QueryClient {
    pub fn new(engine: &Engine, oracle: &Oracle, id: u64, clients: u64) -> QueryClient {
        QueryClient {
            conn: engine.db.connect(),
            oracle: Arc::clone(oracle),
            id,
            offset: (id * oracle.len() as u64 / clients.max(1)) as usize,
            digest: DIGEST_SEED,
        }
    }
}

impl Client for QueryClient {
    fn step(&mut self, op: u64) -> Result<Step, String> {
        let want = &self.oracle[(self.offset + op as usize) % self.oracle.len()];
        let sql = &want.sql;
        let (r, ns) = timed((self.id + 1) << 40 | op, || exec(&self.conn, sql));
        match r {
            Ok(r) => {
                let got = ids_of(&r)?;
                if got.len() != want.rows || digest_of(&got) != want.digest {
                    return Err(format!(
                        "{sql}: {} rows differ from the oracle's {}",
                        got.len(),
                        want.rows
                    ));
                }
                fold(&mut self.digest, &[want.digest]);
                Ok(Step::Done { ns, write: false })
            }
            Err(e) if crate::engine::is_contention(&e) => Ok(Step::Failed { write: false }),
            Err(e) => Err(format!("{sql}: {e}")),
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}
