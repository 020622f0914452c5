//! The engine's benchmark: three closed-loop workloads, each checked
//! against an oracle, reporting end-to-end latency and throughput, or,
//! with `--trace 1`, the per-layer split from client to fsync.
//!
//! ```text
//! perfbench --workload <bitemporal_query|durable_dml|wire_probe>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--data-dir <dir>] [--spans <file>]
//! ```
//!
//! `--spans` writes the traced window's spans to a tab-separated file.
//!
//! Every layer is measured from outside through public API: client
//! calls are timed, the storage backend and WAL are wrapped in
//! forwarding types, the blade sits behind a forwarding access method,
//! and counts come from the engine's metrics registry. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod bench;
mod dml;
mod driver;
mod engine;
mod layers;
mod query;
mod span;
mod wire;
mod wrap;

use bench::{selftest, setup_dml, setup_query, setup_wire, Bench, Scale};
use driver::{median, quantile, Budget, Measured};
use engine::err;
use grt_metrics::MetricsSnapshot;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["bitemporal_query", "durable_dml", "wire_probe"];
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// The end-to-end metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("store_bytes_per_row", "bytes"),
    ("peak_rss_mb", "MiB"),
];
/// Untraced/traced window pairs of a traced run.
const TRACE_PAIRS: usize = 5;
/// Unmeasured warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Statements per client run before the store is measured.
const CHURN_OPS: u64 = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from(".perfbench-data"),
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(err)?,
            "--seconds" => args.seconds = value.parse().map_err(err)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--data-dir" => args.data_dir = PathBuf::from(value),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload takes one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Everything a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

/// The process's resident-set high-water mark (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up `SETUPS` times (timing each; the last one is kept, the
/// earlier ones are torn down), then drives the kept one.
fn measure<B: Bench>(
    args: &Args,
    mut setup: impl FnMut(usize) -> Result<B, String>,
    selftest: impl FnOnce() -> Result<String, String>,
) -> Result<Report, String> {
    let mut notes = Vec::new();
    if args.trace {
        notes.push(selftest()?);
    }
    let mut setup_s = Vec::new();
    let mut build_s = 0.0;
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let last = i + 1 == SETUPS;
        span::set_enabled(args.trace && last);
        let start = Instant::now();
        let bench = setup(i)?;
        setup_s.push(start.elapsed().as_secs_f64());
        span::set_enabled(false);
        build_s = span::drain()
            .iter()
            .filter(|s| s.name == "am.build")
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum();
        kept = Some(bench);
    }
    let mut bench = kept.expect("at least one setup");
    bench.prepare()?;
    let setup_s = median(setup_s);
    let engine = bench.engine();
    let mut clients = bench.clients(CLIENTS)?;
    // A write workload's store is measured after a fixed number of
    // statements, not after the timed window: its footprint grows with
    // the rows it has churned, and a faster engine, which churns more
    // in a window, must not read as a fatter one.
    let churn_ops = if bench.writes() { CHURN_OPS } else { 0 };
    driver::run(&mut clients, Budget::Ops(churn_ops))?;
    let churned_rows = bench.verify(&clients)?;
    engine.settle()?;
    let store_bytes_per_row = engine.store_bytes_per_row(churned_rows)?;
    notes.push(format!(
        "store: {store_bytes_per_row:.1} bytes/row over {churned_rows} rows after {churn_ops} statements per client"
    ));
    driver::run(&mut clients, Budget::Time(WARMUP))?;
    // Read before the measured window: from here on the harness's own
    // per-statement records grow with throughput, and a faster engine
    // must not read as a fatter one.
    let peak_rss_mb = peak_rss_mb();

    let run = if args.trace {
        Run::Traced(traced_run(args, &bench, &mut clients, build_s)?)
    } else {
        let window = Budget::Time(Duration::from_secs_f64(args.seconds));
        Run::Untraced(driver::run(&mut clients, window)?)
    };

    let rows = bench.verify(&clients)?;
    engine.settle()?;
    notes.push(stamp(&bench, rows, engine.used_pages()?));
    match run {
        Run::Traced(split) => layer_report(split, notes),
        Run::Untraced(m) => Ok(end_to_end(
            &m,
            [setup_s, store_bytes_per_row, peak_rss_mb],
            notes,
        )),
    }
}

/// The measured part of a run: end-to-end or per-layer.
enum Run {
    Untraced(Measured),
    Traced(Split),
}

/// The per-layer split of a traced run, with the statements attempted
/// and failed across all its windows.
struct Split {
    values: HashMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

fn layer_report(split: Split, mut notes: Vec<String>) -> Result<Report, String> {
    let values = &split.values;
    let frac = values["trace.attributed_frac"];
    if (frac - 1.0).abs() > 0.05 {
        return Err(format!(
            "self times cover {:.1}% of the client-observed statement time",
            frac * 100.0
        ));
    }
    let mut metrics = Vec::new();
    for m in layers::PER_LAYER {
        metrics.push((m.name, values[m.name], m.unit));
        notes.push(format!(
            "layer {:<32} {:>14.4} {:<6} ({} is better) [{}] moves {}",
            m.name, values[m.name], m.unit, m.better, m.layer, m.moves
        ));
    }
    Ok(Report {
        attempted: split.attempted,
        failed: split.failed,
        metrics,
        notes,
    })
}

/// Alternates untraced and traced windows, so drift in the machine's
/// speed falls on both alike, and computes the per-layer split over
/// the traced ones.
fn traced_run<B: Bench>(
    args: &Args,
    bench: &B,
    clients: &mut [B::C],
    build_s: f64,
) -> Result<Split, String> {
    let engine = bench.engine();
    let slice = Duration::from_secs_f64(args.seconds / (2 * TRACE_PAIRS) as f64);
    let mut registry = MetricsSnapshot::default();
    let mut spans = Vec::new();
    let mut server_exec = bench.server_exec(clients)?.map(|_| (0, 0));
    // (statements attempted, failed, written, seconds) per mode.
    let mut totals = [(0u64, 0u64, 0u64, 0f64); 2];
    for _ in 0..TRACE_PAIRS {
        for traced in [false, true] {
            let before = engine.db.metrics_snapshot();
            let server_before = bench.server_exec(clients)?;
            span::set_enabled(traced);
            let m = driver::run(clients, Budget::Time(slice));
            span::set_enabled(false);
            let m = m?;
            let t = &mut totals[usize::from(traced)];
            t.0 += m.attempted();
            t.1 += m.failed();
            t.2 += m.writes();
            t.3 += m.elapsed.as_secs_f64();
            if !traced {
                continue;
            }
            spans.extend(span::drain());
            for (name, n) in engine.db.metrics_snapshot().since(&before).counters {
                *registry.counters.entry(name).or_default() += n;
            }
            if let (Some(acc), Some(b), Some(a)) =
                (&mut server_exec, server_before, bench.server_exec(clients)?)
            {
                acc.0 += a.0 - b.0;
                acc.1 += a.1.saturating_sub(b.1);
            }
        }
    }
    if let Some(path) = &args.spans {
        span::write_tsv(&spans, path).map_err(err)?;
    }
    let ops_per_s = |t: (u64, u64, u64, f64)| (t.0 - t.1) as f64 / t.3;
    let [untraced, traced] = totals;
    let w = layers::Window {
        spans: &spans,
        registry,
        ops: traced.0,
        writes: traced.2,
        seconds: traced.3,
        server_exec,
        build_s,
        wal_live_bytes_end: engine.space.wal_live_bytes().map_err(err)?,
        untraced_ops_per_s: ops_per_s(untraced),
        traced_ops_per_s: ops_per_s(traced),
    };
    Ok(Split {
        values: layers::compute(&w),
        attempted: untraced.0 + traced.0,
        failed: untraced.1 + traced.1,
    })
}

/// The end-to-end report of an untraced run; `fixed` holds set-up
/// time, store bytes per row and peak RSS.
fn end_to_end(m: &Measured, fixed: [f64; 3], mut notes: Vec<String>) -> Report {
    let us = |ns: f64| ns / 1e3;
    let (ops_per_s, stretches) = m.median_ops_per_s();
    let [setup_s, store_bytes_per_row, peak_rss_mb] = fixed;
    let values = [
        ops_per_s,
        us(m.p50_ns()),
        setup_s,
        store_bytes_per_row,
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    notes.push(format!(
        "samples: {} statements ({} failed, error_rate {:.6}) over {:.3} s in {} stretches; \
         whole-window ops_per_s {:.1}",
        m.attempted(),
        m.failed(),
        m.failed() as f64 / m.attempted().max(1) as f64,
        m.elapsed.as_secs_f64(),
        stretches,
        m.ops_per_s(),
    ));
    // The tails are reported, not gated: on a shared disk the durable
    // workload's p99 moves by a third from run to run.
    for (label, lat) in [
        ("", m.latencies(|_| true)),
        ("write_", m.latencies(|s| s.write)),
    ] {
        if !lat.is_empty() {
            notes.push(format!(
                "latency: {label}p50_us {:.3} {label}p99_us {:.3} over {} statements, {} beyond the p99",
                us(quantile(&lat, 0.50)),
                us(quantile(&lat, 0.99)),
                lat.len(),
                lat.len() - (lat.len() as f64 * 0.99).ceil() as usize,
            ));
        }
    }
    Report {
        attempted: m.attempted(),
        failed: m.failed(),
        metrics,
        notes,
    }
}

/// The record stamp: hardware, sizes, flush policy and loop type.
fn stamp<B: Bench>(bench: &B, rows: usize, store_pages: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = bench
        .data_dir()
        .map_or_else(|| "memory".to_string(), filesystem_of);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "stamp: nproc={nproc} cpu=\"{cpu}\" data_fs={fs} profile={profile} \
         pool_pages={} store_pages={store_pages} rows={rows} flush=\"{}\" \
         loop=closed clients={CLIENTS}",
        bench.pool_pages(),
        bench.flush_policy()
    )
}

/// The file-system type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let root = &args.data_dir;
    let seed = args.seed;
    let full = |i: usize| format!("setup-{i}");
    match args.workload.as_str() {
        "bitemporal_query" => measure(
            args,
            |i| setup_query(seed, root, &full(i), Scale::Full),
            || selftest(|name| setup_query(seed, root, name, Scale::Small), 64),
        ),
        "durable_dml" => measure(
            args,
            |i| setup_dml(seed, root, &full(i), Scale::Full),
            || selftest(|name| setup_dml(seed, root, name, Scale::Small), 200),
        ),
        "wire_probe" => measure(
            args,
            |_| setup_wire(seed, Scale::Full),
            || selftest(|_| setup_wire(seed, Scale::Small), 512),
        ),
        other => unreachable!("parse_args admits no workload {other:?}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            for n in &report.notes {
                println!("{n}");
            }
            for (name, value, unit) in &report.metrics {
                println!("metric {name} = {value:.4} {unit}");
            }
            println!(
                "{}",
                json_line(true, report.attempted, report.failed, &report.metrics)
            );
        }
        Err(e) => {
            // A failed check reports the failure, not numbers.
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            println!("{}", json_line(false, 1, 0, &[]));
            std::process::exit(1);
        }
    }
}
