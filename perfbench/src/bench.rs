//! The three workloads behind one interface, at full size for the
//! measured run and at a small size for the traced-vs-untraced
//! self-test.

use crate::driver::{self, Budget, Client};
use crate::engine::{fresh_dir, Engine};
use crate::{dml, query, span, wire};
use std::path::{Path, PathBuf};

/// One workload, set up and ready to drive.
pub trait Bench {
    type C: Client;
    fn engine(&self) -> &Engine;
    /// Computes the check's expected answers once set-up is timed.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn clients(&self, n: usize) -> Result<Vec<Self::C>, String>;
    /// Checks the end state after the run; returns the live row count.
    fn verify(&self, clients: &[Self::C]) -> Result<usize, String>;
    /// True when the workload changes the stored rows.
    fn writes(&self) -> bool {
        false
    }
    /// Server-side `ids.exec_ns` (count, sum) for wire workloads.
    fn server_exec(&self, _clients: &[Self::C]) -> Result<Option<(u64, u64)>, String> {
        Ok(None)
    }
    fn flush_policy(&self) -> &'static str;
    fn pool_pages(&self) -> usize;
    /// The data directory, or `None` for an in-memory store.
    fn data_dir(&self) -> Option<&Path>;
}

/// Full size for measuring, small for the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

pub struct QueryBench {
    engine: Engine,
    data: query::Data,
    oracle: query::Oracle,
    pool_pages: usize,
    dir: PathBuf,
}

impl Bench for QueryBench {
    type C = query::QueryClient;
    fn engine(&self) -> &Engine {
        &self.engine
    }
    fn prepare(&mut self) -> Result<(), String> {
        self.oracle = query::oracle(&self.data);
        Ok(())
    }
    fn clients(&self, n: usize) -> Result<Vec<Self::C>, String> {
        Ok((0..n as u64)
            .map(|i| query::QueryClient::new(&self.engine, &self.oracle, i, n as u64))
            .collect())
    }
    fn verify(&self, _clients: &[Self::C]) -> Result<usize, String> {
        Ok(self.data.rows.len())
    }
    fn flush_policy(&self) -> &'static str {
        "read-only; force at commit, no background checkpoint"
    }
    fn pool_pages(&self) -> usize {
        self.pool_pages
    }
    fn data_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

pub fn setup_query(seed: u64, root: &Path, name: &str, scale: Scale) -> Result<QueryBench, String> {
    // The small store is still several times its pool, so it faults.
    let (inserts, rounds, pool_pages) = match scale {
        Scale::Full => (query::INSERTS, query::ROUNDS, query::POOL_PAGES),
        Scale::Small => (6_000, 16, 32),
    };
    let dir = fresh_dir(root, name)?;
    let data = query::generate(seed, inserts, rounds);
    let engine = query::build(&data, &dir, pool_pages)?;
    Ok(QueryBench {
        engine,
        data,
        oracle: Default::default(),
        pool_pages,
        dir,
    })
}

pub struct DmlBench {
    engine: Engine,
    data: dml::Data,
    seed: u64,
    dir: PathBuf,
}

impl Bench for DmlBench {
    type C = dml::DmlClient;
    fn engine(&self) -> &Engine {
        &self.engine
    }
    fn clients(&self, n: usize) -> Result<Vec<Self::C>, String> {
        Ok((0..n as u64)
            .map(|i| dml::DmlClient::new(&self.engine, &self.data, self.seed, i, n as u64))
            .collect())
    }
    fn verify(&self, clients: &[Self::C]) -> Result<usize, String> {
        dml::verify(&self.engine, clients)
    }
    fn writes(&self) -> bool {
        true
    }
    fn flush_policy(&self) -> &'static str {
        "group commit, background fuzzy checkpoint every 5 s"
    }
    fn pool_pages(&self) -> usize {
        dml::POOL_PAGES
    }
    fn data_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

pub fn setup_dml(seed: u64, root: &Path, name: &str, scale: Scale) -> Result<DmlBench, String> {
    // The self-test runs without the background checkpointer, whose
    // timing would make the two passes' counters differ.
    let (rows, checkpoints) = match scale {
        Scale::Full => (dml::ROWS, Some(dml::CHECKPOINT_INTERVAL)),
        Scale::Small => (500, None),
    };
    let dir = fresh_dir(root, name)?;
    let data = dml::generate(seed, rows);
    let engine = dml::build(&data, &dir, dml::options(checkpoints))?;
    Ok(DmlBench {
        engine,
        data,
        seed,
        dir,
    })
}

pub struct WireBench {
    served: wire::Served,
    data: wire::Data,
    expected: wire::Expected,
}

impl Bench for WireBench {
    type C = wire::WireClient;
    fn engine(&self) -> &Engine {
        &self.served.engine
    }
    fn prepare(&mut self) -> Result<(), String> {
        self.expected = wire::expected(&self.served, &self.data)?;
        Ok(())
    }
    fn clients(&self, n: usize) -> Result<Vec<Self::C>, String> {
        (0..n as u64)
            .map(|i| wire::WireClient::connect(&self.served, &self.expected, i))
            .collect()
    }
    fn verify(&self, _clients: &[Self::C]) -> Result<usize, String> {
        Ok(self.data.rows.len())
    }
    fn server_exec(&self, clients: &[Self::C]) -> Result<Option<(u64, u64)>, String> {
        wire::server_exec_ns(&clients[0].driver).map(Some)
    }
    fn flush_policy(&self) -> &'static str {
        "in-memory store, read-only"
    }
    fn pool_pages(&self) -> usize {
        wire::POOL_PAGES
    }
    fn data_dir(&self) -> Option<&Path> {
        None
    }
}

pub fn setup_wire(seed: u64, scale: Scale) -> Result<WireBench, String> {
    let rows = match scale {
        Scale::Full => wire::ROWS,
        Scale::Small => 2_000,
    };
    let data = wire::generate(seed, rows);
    let served = wire::build(&data)?;
    Ok(WireBench {
        served,
        data,
        expected: Default::default(),
    })
}

/// Registry counters the self-test requires to match exactly.
fn compared(name: &str) -> bool {
    matches!(
        name,
        "sbspace.wal_syncs" | "sbspace.physical_reads" | "grtree.nodes_visited"
    ) || name.starts_with("am.")
}

/// What one self-test pass saw.
struct Pass {
    digest: u64,
    counters: Vec<(String, u64)>,
    spans: usize,
}

/// Runs one seeded single-client pass untraced and one traced, each on
/// a fresh small setup, and requires identical row sets and identical
/// registry counter deltas: the wrappers and the recorder must not
/// change what the engine does.
pub fn selftest<B: Bench>(
    mut setup: impl FnMut(&str) -> Result<B, String>,
    ops: u64,
) -> Result<String, String> {
    let mut passes = Vec::new();
    for traced in [false, true] {
        let mut bench = setup(if traced {
            "selftest-traced"
        } else {
            "selftest"
        })?;
        bench.prepare()?;
        let mut clients = bench.clients(1)?;
        let before = bench.engine().db.metrics_snapshot();
        span::set_enabled(traced);
        let run = driver::run(&mut clients, Budget::Ops(ops));
        span::set_enabled(false);
        let spans = span::drain().len();
        run?;
        let delta = bench.engine().db.metrics_snapshot().since(&before);
        bench.verify(&clients)?;
        let counters: Vec<(String, u64)> = delta
            .counters
            .into_iter()
            .filter(|(name, _)| compared(name))
            .collect();
        passes.push(Pass {
            digest: clients[0].digest(),
            counters,
            spans,
        });
    }
    let (untraced, traced) = (&passes[0], &passes[1]);
    if traced.spans == 0 {
        return Err("the traced self-test pass recorded no spans".into());
    }
    if untraced.digest != traced.digest {
        return Err("traced and untraced passes returned different rows".into());
    }
    if untraced.counters != traced.counters {
        return Err(format!(
            "traced and untraced passes moved the counters differently: {:?} vs {:?}",
            untraced.counters, traced.counters
        ));
    }
    let shown: Vec<String> = traced
        .counters
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    Ok(format!(
        "selftest: {ops} statements traced ({} spans) and untraced: identical rows (digest {:016x}) and counters {}",
        traced.spans,
        traced.digest,
        shown.join(" ")
    ))
}
