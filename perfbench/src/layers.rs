//! The per-layer split of a traced run, computed from the recorded
//! spans, the wrappers' counters, and the engine's registry deltas.
//!
//! Each metric names its layer and the end-to-end metric (and the
//! workload) it is expected to move; `BENCHMARK.json` lists the same
//! names, units and directions.

use crate::span::Span;
use grt_metrics::MetricsSnapshot;
use std::collections::HashMap;

/// One per-layer metric and what it explains.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// End-to-end metric and workload the layer is expected to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

// The write_* figures are the durable workload's commit latencies,
// printed with every untraced run.
const WIRE: &str = "p50_us, ops_per_s on wire_probe";
const IDS: &str = "p50_us on bitemporal_query and wire_probe; write_p99_us on durable_dml";
const AM_READ: &str = "p50_us on bitemporal_query";
const AM_WRITE: &str = "write_p50_us on durable_dml";
const TREE: &str = "p50_us on bitemporal_query; write_p50_us on durable_dml";
const POOL: &str = "p50_us, ops_per_s on bitemporal_query";
const LOCK: &str = "write_p99_us on durable_dml";
const WAL: &str = "write_p50_us, ops_per_s on durable_dml";
const BACKEND: &str = "reads: p50_us on bitemporal_query; writes: write_p50_us on durable_dml";
const CKPT: &str = "write_p99_us on durable_dml";

/// Every per-layer metric a traced run reports, in report order.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("wire.client_us", "us", "lower", "grt-client", WIRE),
    m("wire.server_exec_us", "us", "lower", "grt-server", WIRE),
    m("wire.overhead_us", "us", "lower", "grt-client/grt-server", WIRE),
    m("ids.exec_us", "us", "lower", "grt-ids", IDS),
    m("ids.self_us", "us", "lower", "grt-ids", IDS),
    m("ids.plan_cache_hit_ratio", "ratio", "higher", "grt-ids", IDS),
    m("ids.index_plan_frac", "ratio", "higher", "grt-ids", IDS),
    m("ids.retries_per_op", "count", "lower", "grt-ids", IDS),
    m("am.open.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.open.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.close.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.close.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.beginscan.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.beginscan.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.getnext_batch.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.getnext_batch.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.endscan.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.endscan.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.insert.calls_per_op", "count", "lower", "grt-blade", AM_WRITE),
    m("am.insert.us_per_op", "us", "lower", "grt-blade", AM_WRITE),
    m("am.delete.calls_per_op", "count", "lower", "grt-blade", AM_WRITE),
    m("am.delete.us_per_op", "us", "lower", "grt-blade", AM_WRITE),
    m("am.update.calls_per_op", "count", "lower", "grt-blade", AM_WRITE),
    m("am.update.us_per_op", "us", "lower", "grt-blade", AM_WRITE),
    m("am.scancost.calls_per_op", "count", "lower", "grt-blade", AM_READ),
    m("am.scancost.us_per_op", "us", "lower", "grt-blade", AM_READ),
    m("am.build.s", "s", "lower", "grt-blade", "setup_s on every workload"),
    m("am.self_us", "us", "lower", "grt-blade", TREE),
    m("scan.rows_per_batch", "count", "higher", "grt-blade", AM_READ),
    m("grtree.nodes_visited_per_op", "count", "lower", "grt-grtree", TREE),
    m("grtree.splits_per_write", "count", "lower", "grt-grtree", AM_WRITE),
    m("grtree.condenses_per_write", "count", "lower", "grt-grtree", AM_WRITE),
    m("grtree.reinserts_per_write", "count", "lower", "grt-grtree", AM_WRITE),
    m("grtree.now_resolutions_per_op", "count", "lower", "grt-grtree", TREE),
    m("pool.logical_reads_per_op", "count", "lower", "grt-sbspace pool", POOL),
    m("pool.physical_reads_per_op", "count", "lower", "grt-sbspace pool", POOL),
    m("pool.hit_ratio", "ratio", "higher", "grt-sbspace pool", POOL),
    m("pool.evictions_per_op", "count", "lower", "grt-sbspace pool", POOL),
    m("pool.inflight_waits_per_op", "count", "lower", "grt-sbspace pool", POOL),
    m("lock.waits_per_op", "count", "lower", "grt-sbspace locks", LOCK),
    m("lock.deadlocks", "count", "lower", "grt-sbspace locks", LOCK),
    m("wal.appends_per_commit", "count", "lower", "grt-sbspace wal", WAL),
    m("wal.bytes_per_commit", "bytes", "lower", "grt-sbspace wal", WAL),
    m("wal.syncs_per_commit", "count", "lower", "grt-sbspace wal", WAL),
    m("wal.sync_us", "us", "lower", "grt-sbspace wal", WAL),
    m("wal.sync_us_per_op", "us", "lower", "grt-sbspace wal", WAL),
    m("wal.self_us", "us", "lower", "grt-sbspace wal", WAL),
    m("backend.read_us_per_op", "us", "lower", "grt-sbspace backend", BACKEND),
    m("backend.pages_per_read_call", "count", "higher", "grt-sbspace backend", BACKEND),
    m("backend.write_pages_per_op", "count", "lower", "grt-sbspace backend", BACKEND),
    m("backend.write_us_per_op", "us", "lower", "grt-sbspace backend", BACKEND),
    m("backend.syncs_per_commit", "count", "lower", "grt-sbspace backend", BACKEND),
    m("backend.self_us", "us", "lower", "grt-sbspace backend", BACKEND),
    m("ckpt.count", "count", "lower", "grt-sbspace checkpoint", CKPT),
    m("ckpt.background_us_per_s", "us/s", "lower", "grt-sbspace checkpoint", CKPT),
    m("wal.live_bytes_end", "bytes", "lower", "grt-sbspace checkpoint", CKPT),
    m("trace.attributed_frac", "ratio", "higher", "perfbench", "none: self times over client time"),
    m("trace.overhead_frac", "ratio", "lower", "perfbench", "none: traced vs untraced ops_per_s"),
];

/// Everything a traced window observed.
pub struct Window<'a> {
    pub spans: &'a [Span],
    pub registry: MetricsSnapshot,
    /// Statements attempted, and how many of them wrote.
    pub ops: u64,
    pub writes: u64,
    pub seconds: f64,
    /// Server-side `ids.exec_ns` (count, sum) over the window, when the
    /// statements went over the wire.
    pub server_exec: Option<(u64, u64)>,
    pub build_s: f64,
    pub wal_live_bytes_end: u64,
    pub untraced_ops_per_s: f64,
    pub traced_ops_per_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer values, keyed by [`PER_LAYER`] name.
pub fn compute(w: &Window) -> HashMap<&'static str, f64> {
    let ops = w.ops as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let per_op_us = |ns: u64| ratio(us(ns), ops);
    let reg = |name: &str| w.registry.get(name) as f64;

    // Self time: a span's duration minus its children's.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in w.spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut self_ns: HashMap<&str, u64> = HashMap::new();
    let mut dur_ns: HashMap<&str, u64> = HashMap::new();
    let mut calls: HashMap<&str, u64> = HashMap::new();
    let mut all_dur_ns: HashMap<&str, u64> = HashMap::new();
    let mut all_calls: HashMap<&str, u64> = HashMap::new();
    let mut amount: HashMap<&str, u64> = HashMap::new();
    let (mut client_ns, mut server_root_ns, mut background_ns) = (0u64, 0u64, 0u64);
    for s in w.spans {
        *all_dur_ns.entry(s.name).or_default() += s.dur_ns();
        *all_calls.entry(s.name).or_default() += 1;
        *amount.entry(s.name).or_default() += s.amount;
        if !s.client_thread {
            if s.parent == 0 {
                background_ns += s.dur_ns();
            }
            continue;
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
        *self_ns.entry(layer).or_default() += own;
        *dur_ns.entry(s.name).or_default() += s.dur_ns();
        *calls.entry(s.name).or_default() += 1;
        match (s.parent, s.name) {
            (0, "ids.exec" | "wire.client") => client_ns += s.dur_ns(),
            // Work on a server connection thread, inside its statement.
            (0, _) => server_root_ns += s.dur_ns(),
            _ => {}
        }
    }
    let get = |m: &HashMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0);

    let mut out: HashMap<&'static str, f64> = HashMap::new();
    let (ids_exec_ns, ids_self_ns, overhead_ns) = match w.server_exec {
        Some((_, server_ns)) => (
            server_ns,
            server_ns.saturating_sub(server_root_ns),
            client_ns.saturating_sub(server_ns),
        ),
        None => (get(&dur_ns, "ids.exec"), get(&self_ns, "ids"), 0),
    };
    if w.server_exec.is_some() {
        out.insert("wire.client_us", per_op_us(client_ns));
        out.insert("wire.server_exec_us", per_op_us(ids_exec_ns));
        out.insert("wire.overhead_us", per_op_us(overhead_ns));
    }
    out.insert("ids.exec_us", per_op_us(ids_exec_ns));
    out.insert("ids.self_us", per_op_us(ids_self_ns));
    let (hits, misses) = (reg("ids.plan_cache_hits"), reg("ids.plan_cache_misses"));
    out.insert("ids.plan_cache_hit_ratio", ratio(hits, hits + misses));
    let (index, seq) = (reg("ids.plans_index"), reg("ids.plans_seq"));
    out.insert("ids.index_plan_frac", ratio(index, index + seq));
    out.insert("ids.retries_per_op", ratio(reg("stmt.retries"), ops));

    for f in [
        "open",
        "close",
        "beginscan",
        "getnext_batch",
        "endscan",
        "insert",
        "delete",
        "update",
        "scancost",
    ] {
        let span = format!("am.{f}");
        let calls_name = layer_name(&format!("am.{f}.calls_per_op"));
        let us_name = layer_name(&format!("am.{f}.us_per_op"));
        out.insert(calls_name, ratio(get(&calls, &span) as f64, ops));
        out.insert(us_name, per_op_us(get(&dur_ns, &span)));
    }
    out.insert("am.build.s", w.build_s);
    out.insert("am.self_us", per_op_us(get(&self_ns, "am")));
    out.insert(
        "scan.rows_per_batch",
        ratio(
            get(&amount, "am.getnext_batch") as f64,
            get(&all_calls, "am.getnext_batch") as f64,
        ),
    );

    let writes = w.writes as f64;
    out.insert(
        "grtree.nodes_visited_per_op",
        ratio(reg("grtree.nodes_visited"), ops),
    );
    out.insert(
        "grtree.splits_per_write",
        ratio(reg("grtree.splits"), writes),
    );
    out.insert(
        "grtree.condenses_per_write",
        ratio(reg("grtree.condenses"), writes),
    );
    out.insert(
        "grtree.reinserts_per_write",
        ratio(reg("grtree.reinserts"), writes),
    );
    out.insert(
        "grtree.now_resolutions_per_op",
        ratio(reg("grtree.now_resolutions"), ops),
    );

    let (logical, physical) = (reg("sbspace.logical_reads"), reg("sbspace.physical_reads"));
    out.insert("pool.logical_reads_per_op", ratio(logical, ops));
    out.insert("pool.physical_reads_per_op", ratio(physical, ops));
    out.insert(
        "pool.hit_ratio",
        if logical == 0.0 {
            1.0
        } else {
            1.0 - physical / logical
        },
    );
    out.insert(
        "pool.evictions_per_op",
        ratio(reg("sbspace.evictions"), ops),
    );
    out.insert(
        "pool.inflight_waits_per_op",
        ratio(reg("sbspace.inflight_waits"), ops),
    );
    out.insert("lock.waits_per_op", ratio(reg("sbspace.lock_waits"), ops));
    out.insert("lock.deadlocks", reg("sbspace.deadlocks"));

    let commits = reg("sbspace.txn_commits");
    out.insert(
        "wal.appends_per_commit",
        ratio(get(&all_calls, "wal.append") as f64, commits),
    );
    out.insert(
        "wal.bytes_per_commit",
        ratio(get(&amount, "wal.append") as f64, commits),
    );
    out.insert(
        "wal.syncs_per_commit",
        ratio(get(&all_calls, "wal.sync") as f64, commits),
    );
    let sync_ns = get(&all_dur_ns, "wal.sync");
    out.insert(
        "wal.sync_us",
        ratio(us(sync_ns), get(&all_calls, "wal.sync") as f64),
    );
    out.insert("wal.sync_us_per_op", per_op_us(sync_ns));
    out.insert("wal.self_us", per_op_us(get(&self_ns, "wal")));

    out.insert(
        "backend.read_us_per_op",
        per_op_us(get(&dur_ns, "backend.read")),
    );
    out.insert(
        "backend.pages_per_read_call",
        ratio(
            get(&amount, "backend.read") as f64,
            get(&all_calls, "backend.read") as f64,
        ),
    );
    out.insert(
        "backend.write_pages_per_op",
        ratio(get(&amount, "backend.write") as f64, ops),
    );
    out.insert(
        "backend.write_us_per_op",
        per_op_us(get(&all_dur_ns, "backend.write")),
    );
    out.insert(
        "backend.syncs_per_commit",
        ratio(get(&all_calls, "backend.sync") as f64, commits),
    );
    out.insert("backend.self_us", per_op_us(get(&self_ns, "backend")));

    out.insert("ckpt.count", reg("sbspace.checkpoints"));
    out.insert(
        "ckpt.background_us_per_s",
        ratio(us(background_ns), w.seconds),
    );
    out.insert("wal.live_bytes_end", w.wal_live_bytes_end as f64);

    // The layers' self times plus the wire's share must account for
    // the statement time the client observed.
    let attributed = ids_self_ns
        + get(&self_ns, "am")
        + get(&self_ns, "backend")
        + get(&self_ns, "wal")
        + overhead_ns;
    out.insert(
        "trace.attributed_frac",
        ratio(attributed as f64, client_ns as f64),
    );
    out.insert(
        "trace.overhead_frac",
        1.0 - ratio(w.traced_ops_per_s, w.untraced_ops_per_s),
    );
    for metric in PER_LAYER {
        out.entry(metric.name).or_insert(0.0);
    }
    out
}

/// The static name in [`PER_LAYER`] equal to `name`.
fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            amount: 0,
            thread: 1,
            stmt: 1,
            client_thread: true,
        }
    }

    fn window(spans: &[Span]) -> Window<'_> {
        Window {
            spans,
            registry: MetricsSnapshot::default(),
            ops: 1,
            writes: 0,
            seconds: 1.0,
            server_exec: None,
            build_s: 0.0,
            wal_live_bytes_end: 0,
            untraced_ops_per_s: 100.0,
            traced_ops_per_s: 90.0,
        }
    }

    #[test]
    fn self_times_partition_the_statement() {
        // exec [0, 100) > am.getnext_batch [10, 60) > backend.read [20, 30)
        //               > wal.sync [70, 90)
        let spans = [
            span(3, 2, "backend.read", 20_000, 30_000),
            span(2, 1, "am.getnext_batch", 10_000, 60_000),
            span(4, 1, "wal.sync", 70_000, 90_000),
            span(1, 0, "ids.exec", 0, 100_000),
        ];
        let v = compute(&window(&spans));
        assert_eq!(v["ids.exec_us"], 100.0);
        assert_eq!(v["ids.self_us"], 30.0);
        assert_eq!(v["am.self_us"], 40.0);
        assert_eq!(v["backend.self_us"], 10.0);
        assert_eq!(v["wal.self_us"], 20.0);
        assert_eq!(v["trace.attributed_frac"], 1.0);
        assert!((v["trace.overhead_frac"] - 0.1).abs() < 1e-12);
        assert_eq!(v.len(), PER_LAYER.len());
    }

    #[test]
    fn wire_overhead_is_client_time_outside_the_server() {
        // The client waits 100 us; the server executes for 60 us, of
        // which a purpose function on its own thread takes 25 us.
        let spans = [
            span(1, 0, "wire.client", 0, 100_000),
            span(2, 0, "am.beginscan", 30_000, 55_000),
        ];
        let mut w = window(&spans);
        w.server_exec = Some((1, 60_000));
        let v = compute(&w);
        assert_eq!(v["wire.client_us"], 100.0);
        assert_eq!(v["wire.overhead_us"], 40.0);
        assert_eq!(v["ids.self_us"], 35.0);
        assert_eq!(v["am.self_us"], 25.0);
        assert_eq!(v["trace.attributed_frac"], 1.0);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in crate::END_TO_END {
            assert!(
                text.contains(&format!("{{\"name\":\"{name}\"")),
                "BENCHMARK.json lacks end-to-end metric {name}"
            );
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            PER_LAYER.len() + crate::END_TO_END.len()
        );
    }
}
