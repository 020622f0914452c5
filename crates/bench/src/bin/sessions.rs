//! Multi-session throughput benchmark: client statements per second as
//! the session count grows, under the engine's lock manager, victim
//! aborts, and automatic statement retry.
//!
//! ```text
//! cargo run --release -p grt-bench --bin sessions [-- --quick] [-- --wire]
//! ```
//!
//! Emits `BENCH_concurrency.json` in the working directory (with
//! `--quick`: fewer operations and session counts, written to
//! `BENCH_concurrency_quick.json` for the CI `bench_gate
//! --throughput`). Two configurations:
//!
//! * `read_committed`: every session at the default READ COMMITTED
//!   level — writers contend on exclusive LO locks but readers release
//!   at close, so deadlocks are rare and throughput tracks raw engine
//!   overhead;
//! * `repeatable_read_mix`: half the sessions SET ISOLATION TO
//!   REPEATABLE READ, whose UPDATEs perform the shared→exclusive
//!   upgrade that manufactures deadlock cycles. Throughput here prices
//!   the victim-abort + backoff + retry machinery, and the report
//!   records how many deadlocks and retries the run absorbed;
//! * `prepared`: the `read_committed` workload issued through
//!   PREPARE/EXECUTE handles compiled once at session start. On this
//!   write-heavy mix GR-tree maintenance dominates, so `prepared`
//!   tracks `read_committed` closely — the transparent plan cache
//!   already gives ad-hoc statements the compiled-form reuse;
//! * `read_mostly`: every session interleaves seven scans per mixed-DML
//!   statement (write ops staggered across sessions). The scans ride
//!   the lock-free snapshot read path, so aggregate throughput must
//!   hold flat-to-rising as sessions grow; `bench_gate --read-scaling`
//!   gates the 8-session rate against the 1-session rate.
//!
//! The `prepared_speedup` section isolates the compile-once payoff on
//! the workload where it matters: point-probe index SELECTs whose
//! execution is a bare tree descent, reissued many times per session.
//! It compares EXECUTE against ad-hoc statements on a database with the
//! transparent plan cache *disabled* (`plan_cache_size: 0` — compile
//! every time), and also records the plan-cached ad-hoc rate, which
//! lands within noise of EXECUTE. `bench_gate --prepared-speedup`
//! guards the EXECUTE-over-uncached ratio.
//!
//! A final `batch_sweep` section re-runs the 4-session scan-heavy mix
//! with `scan_batch_rows` at 1 / 16 / 256, pricing the per-call
//! overhead the batched `am_getnext_batch` fetch amortises.
//!
//! Each `(config, sessions)` pair runs on a fresh in-memory database so
//! tree growth from one measurement never bleeds into the next; the
//! best of `reps` repetitions is reported.
//!
//! With `--wire` the benchmark instead prices the served path: the
//! same point-probe workload through a `RemoteDriver` against a
//! loopback `grt-server` versus an `EmbeddedDriver` on an identical
//! database, reporting per-session-count throughput, p99 statement
//! latency, the wire-vs-embedded overhead ratio, and the sequential
//! connect/disconnect rate. Written to `BENCH_wire.json`
//! (`BENCH_wire_quick.json` with `--quick`) and gated by `bench_gate
//! --wire-overhead`.

use grt_bench::CostTrailer;
use grt_blade::{install_grtree_blade, GrTreeAmOptions};
use grt_client::{Driver, EmbeddedDriver, RemoteDriver};
use grt_ids::{Database, DatabaseOptions, IdsError};
use grt_sbspace::{SbError, SbspaceOptions};
use grt_server::{Server, ServerOptions};
use grt_temporal::{Day, MockClock};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Config {
    name: &'static str,
    /// Fraction of sessions (numerator over 2) running REPEATABLE READ.
    rr_half: bool,
    /// Sessions PREPARE their four statement shapes during setup and
    /// issue the whole workload through EXECUTE handles.
    prepared: bool,
    /// Seven reads per write: every session scans on seven of each
    /// eight ops and runs one mixed-DML statement on the eighth, so the
    /// per-session workload is identical at every session count. Scans
    /// route over lock-free space snapshots. `bench_gate
    /// --read-scaling` gates that this config's throughput does not
    /// collapse from 1 to 8 sessions — the pre-snapshot regime queued
    /// every reader behind the writers' exclusive LO locks.
    read_mostly: bool,
}

const CONFIGS: [Config; 4] = [
    Config {
        name: "read_committed",
        rr_half: false,
        prepared: false,
        read_mostly: false,
    },
    Config {
        name: "repeatable_read_mix",
        rr_half: true,
        prepared: false,
        read_mostly: false,
    },
    Config {
        name: "prepared",
        rr_half: false,
        prepared: true,
        read_mostly: false,
    },
    Config {
        name: "read_mostly",
        rr_half: false,
        prepared: false,
        read_mostly: true,
    },
];

/// Extents spread over 1997 so updates and scans overlap heavily.
const EXTENTS: [&str; 4] = [
    "05/18/1997, UC, 05/18/1997, NOW",
    "03/01/1997, UC, 03/01/1997, 09/30/1997",
    "06/10/1997, UC, 06/10/1997, NOW",
    "01/05/1997, UC, 01/05/1997, 12/20/1997",
];

const QUERY: &str = "Overlaps(Time_Extent, '01/01/1997, UC, 01/01/1997, NOW')";

/// Deterministic xorshift64* — keeps run-to-run workloads identical.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fresh_db() -> Database {
    let defaults = DatabaseOptions::default();
    fresh_db_with(defaults.scan_batch_rows, defaults.plan_cache_size)
}

fn fresh_db_with_batch(scan_batch_rows: usize) -> Database {
    fresh_db_with(scan_batch_rows, DatabaseOptions::default().plan_cache_size)
}

fn fresh_db_with(scan_batch_rows: usize, plan_cache_size: usize) -> Database {
    let db = Database::new(DatabaseOptions {
        space: SbspaceOptions {
            pool_pages: 2048,
            lock_timeout: Duration::from_millis(2_000),
            ..Default::default()
        },
        clock: Arc::new(MockClock::new(Day(10_100))),
        deadlock_retries: 10,
        retry_backoff: Duration::from_millis(1),
        scan_workers: 1,
        scan_batch_rows,
        plan_cache_size,
        ..Default::default()
    });
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    let setup = db.connect();
    setup
        .exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    setup
        .exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    // Seed rows give scans and cross-session updates a realistic
    // working set to chew through from the first operation.
    for i in 0..96u64 {
        let e = EXTENTS[(i % 4) as usize];
        setup
            .exec(&format!("INSERT INTO t VALUES ({}, '{e}')", 9_000_000 + i))
            .unwrap();
    }
    db
}

struct Measured {
    stmt_per_sec: f64,
    statements: u64,
    deadlocks: u64,
    retries: u64,
    diff: grt_metrics::MetricsSnapshot,
}

/// `sessions` workers each issue `ops` mixed statements; returns the
/// client-statement throughput and the contention counters the run
/// absorbed. Statements lost to lock timeouts still count as issued —
/// the client waited for them either way. With `prepared`, the four
/// statement shapes are compiled once per session before the clock
/// starts and the timed loop goes through EXECUTE handles.
fn run(
    db: &Database,
    sessions: usize,
    ops: usize,
    rr_half: bool,
    prepared: bool,
    read_mostly: bool,
) -> Measured {
    let conns: Vec<_> = (0..sessions)
        .map(|i| {
            let conn = db.connect();
            if rr_half && i % 2 == 1 {
                conn.exec("SET ISOLATION TO REPEATABLE READ").unwrap();
            }
            if prepared {
                conn.exec("PREPARE ins FROM 'INSERT INTO t VALUES (?, ?)'")
                    .unwrap();
                conn.exec("PREPARE upd FROM 'UPDATE t SET Time_Extent = ? WHERE id = ?'")
                    .unwrap();
                conn.exec("PREPARE del FROM 'DELETE FROM t WHERE id = ?'")
                    .unwrap();
                conn.exec(
                    "PREPARE sel FROM 'SELECT id FROM t \
                     WHERE Overlaps(Time_Extent, ?)'",
                )
                .unwrap();
            }
            conn
        })
        .collect();
    let before = db.metrics_snapshot();
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let start = Instant::now();
    std::thread::scope(|s| {
        for (w, conn) in conns.iter().enumerate() {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut rng = Rng(0x9e37_79b9 + w as u64);
                let mut my_ids: Vec<u64> = Vec::new();
                barrier.wait();
                for op in 0..ops {
                    // Read-mostly sessions interleave seven scans per
                    // DML statement, staggered by session index so the
                    // write ops don't land in lockstep. Scans ride the
                    // snapshot read path while the writes keep
                    // committing underneath them; keeping every session
                    // on the same 7:1 mix makes the 1-session and
                    // 8-session figures directly comparable.
                    if read_mostly && (op + w) % 8 != 7 {
                        match conn.exec(&format!("SELECT id FROM t WHERE {QUERY}")) {
                            Ok(_)
                            | Err(IdsError::Storage(
                                SbError::LockTimeout(_) | SbError::Deadlock(_),
                            )) => continue,
                            Err(other) => panic!("session {w}: unexpected error {other}"),
                        }
                    }
                    let r = match rng.below(10) {
                        0..=3 => {
                            let id = w as u64 * 1_000_000 + op as u64;
                            let e = EXTENTS[rng.below(4) as usize];
                            let r = conn.exec(&if prepared {
                                format!("EXECUTE ins USING {id}, '{e}'")
                            } else {
                                format!("INSERT INTO t VALUES ({id}, '{e}')")
                            });
                            if r.is_ok() {
                                my_ids.push(id);
                            }
                            r
                        }
                        4..=5 if !my_ids.is_empty() => {
                            let id = my_ids[rng.below(my_ids.len() as u64) as usize];
                            let e = EXTENTS[rng.below(4) as usize];
                            conn.exec(&if prepared {
                                format!("EXECUTE upd USING '{e}', {id}")
                            } else {
                                format!("UPDATE t SET Time_Extent = '{e}' WHERE id = {id}")
                            })
                        }
                        6..=7 if !my_ids.is_empty() => {
                            let i = rng.below(my_ids.len() as u64) as usize;
                            let id = my_ids[i];
                            let r = conn.exec(&if prepared {
                                format!("EXECUTE del USING {id}")
                            } else {
                                format!("DELETE FROM t WHERE id = {id}")
                            });
                            if r.is_ok() {
                                my_ids.swap_remove(i);
                            }
                            r
                        }
                        _ => {
                            if prepared {
                                conn.exec(
                                    "EXECUTE sel USING \
                                     '01/01/1997, UC, 01/01/1997, NOW'",
                                )
                            } else {
                                conn.exec(&format!("SELECT id FROM t WHERE {QUERY}"))
                            }
                        }
                    };
                    match r {
                        Ok(_)
                        | Err(IdsError::Storage(
                            SbError::LockTimeout(_) | SbError::Deadlock(_),
                        )) => {}
                        Err(other) => panic!("session {w}: unexpected error {other}"),
                    }
                }
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed();
    let issued = (sessions * ops) as u64;
    let diff = db.metrics_snapshot().since(&before);
    Measured {
        stmt_per_sec: issued as f64 / elapsed.as_secs_f64(),
        statements: issued,
        deadlocks: diff.get("sbspace.deadlocks"),
        retries: diff.get("stmt.retries"),
        diff,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--wire") {
        wire_bench(quick);
        return;
    }
    // Quick keeps a subset of the full run's session counts so the CI
    // gate always finds shared (config, sessions) pairs to compare.
    let (session_counts, ops, reps, out_file): (&[usize], usize, usize, &str) = if quick {
        (&[1, 4], 60, 2, "BENCH_concurrency_quick.json")
    } else {
        (&[1, 2, 4, 8], 200, 4, "BENCH_concurrency.json")
    };

    let mut json = String::from("{\n");
    let mut summary: Vec<String> = Vec::new();
    for cfg in CONFIGS.iter() {
        println!(
            "== {} ({}) ==",
            cfg.name,
            if cfg.rr_half {
                "half the sessions REPEATABLE READ"
            } else if cfg.prepared {
                "all statements through PREPARE/EXECUTE"
            } else if cfg.read_mostly {
                "7 reads : 1 write per session, scans on the snapshot path"
            } else {
                "all sessions READ COMMITTED"
            }
        );
        // Quick mode still measures read_mostly at 1 and 8 sessions:
        // those two points are exactly what `bench_gate --read-scaling`
        // compares, and the CI smoke run feeds it the quick report.
        let counts: &[usize] = if cfg.read_mostly && quick {
            &[1, 8]
        } else {
            session_counts
        };
        let mut rows = Vec::new();
        for &n in counts {
            let mut best: Option<Measured> = None;
            for _ in 0..reps {
                // A fresh database per repetition: tree growth and
                // logically-deleted versions never accumulate across
                // measurements.
                let db = fresh_db();
                let m = run(&db, n, ops, cfg.rr_half, cfg.prepared, cfg.read_mostly);
                assert!(
                    db.space().locks_quiescent(),
                    "bench leaked locks at {n} sessions"
                );
                if best
                    .as_ref()
                    .is_none_or(|b| m.stmt_per_sec > b.stmt_per_sec)
                {
                    best = Some(m);
                }
            }
            let m = best.unwrap();
            println!(
                "  {n} session(s): {:9.1} stmt/s  ({} statements, {} deadlocks, {} retries)",
                m.stmt_per_sec, m.statements, m.deadlocks, m.retries
            );
            println!("{}", CostTrailer::line(&format!("sessions n={n}"), &m.diff));
            rows.push(format!(
                "      {{\"sessions\": {n}, \"stmt_per_sec\": {:.1}, \"statements\": {}, \
                 \"deadlocks\": {}, \"retries\": {}}}",
                m.stmt_per_sec, m.statements, m.deadlocks, m.retries
            ));
            if n == *counts.last().unwrap() {
                summary.push(format!(
                    "{}: {n}-session {:.1} stmt/s, {} deadlocks, {} retries",
                    cfg.name, m.stmt_per_sec, m.deadlocks, m.retries
                ));
            }
        }
        let _ = write!(
            json,
            "  \"{}\": {{\n    \"rr_sessions\": \"{}\",\n    \"sessions\": [\n{}\n    ]\n  }},\n",
            cfg.name,
            if cfg.rr_half { "half" } else { "none" },
            rows.join(",\n"),
        );
    }

    // Compile-once payoff, isolated: point-probe index SELECTs whose
    // execution is a bare tree descent. EXECUTE (compiled once at
    // PREPARE) against ad-hoc with the transparent cache disabled
    // (compile every time); the plan-cached ad-hoc rate rides along to
    // show the transparent cache closes the same gap.
    println!("== prepared speedup (point probes, vs compile-every-time) ==");
    let mut rows = Vec::new();
    let probe_ops = if quick { 600 } else { 1_500 };
    for &n in session_counts {
        let mut uncached = 0f64;
        let mut prepared = 0f64;
        let mut cached = 0f64;
        for _ in 0..reps {
            let defaults = DatabaseOptions::default();
            let db = fresh_db_with(defaults.scan_batch_rows, 0);
            uncached = uncached.max(probe_run(&db, n, probe_ops, ProbeMode::Adhoc));
            let db = fresh_db_with(defaults.scan_batch_rows, 0);
            prepared = prepared.max(probe_run(&db, n, probe_ops, ProbeMode::Execute));
            let db = fresh_db();
            cached = cached.max(probe_run(&db, n, probe_ops, ProbeMode::Adhoc));
        }
        let speedup = prepared / uncached;
        println!(
            "  {n} session(s): {speedup:.2}x  \
             (EXECUTE {prepared:.0} stmt/s, uncached ad-hoc {uncached:.0}, \
             plan-cached ad-hoc {cached:.0})"
        );
        rows.push(format!(
            "      {{\"sessions\": {n}, \"speedup\": {speedup:.3}, \
             \"prepared_stmt_per_sec\": {prepared:.1}, \
             \"uncached_stmt_per_sec\": {uncached:.1}, \
             \"cached_stmt_per_sec\": {cached:.1}}}"
        ));
    }
    let _ = write!(
        json,
        "  \"prepared_speedup\": {{\n    \"baseline\": \"uncached_adhoc\",\n    \
         \"workload\": \"point_probe_select\",\n    \
         \"sessions\": [\n{}\n    ]\n  }},\n",
        rows.join(",\n")
    );

    // Batch sweep: a scan-heavy 4-session run at different
    // `scan_batch_rows`, pricing the per-call AM overhead the batched
    // fetch amortises.
    println!("== batch sweep (scan-heavy, 4 sessions) ==");
    let mut rows = Vec::new();
    let sweep_ops = if quick { 40 } else { 120 };
    for batch in [1usize, 16, 256] {
        let mut best = 0f64;
        for _ in 0..reps {
            let db = fresh_db_with_batch(batch);
            let m = scan_sweep(&db, 4, sweep_ops);
            best = best.max(m);
        }
        println!("  batch {batch:3}: {best:9.1} stmt/s");
        rows.push(format!(
            "      {{\"batch\": {batch}, \"stmt_per_sec\": {best:.1}}}"
        ));
    }
    let _ = write!(
        json,
        "  \"batch_sweep\": {{\n    \"sessions_fixed\": 4,\n    \"batches\": [\n{}\n    ]\n  }}\n",
        rows.join(",\n")
    );

    json.push('}');
    json.push('\n');
    std::fs::write(out_file, &json).unwrap();
    println!("\nwrote {out_file}");
    for line in summary {
        println!("  {line}");
    }
}

/// The `--wire` benchmark: the point-probe workload through remote
/// and embedded drivers, plus the raw connection rate.
fn wire_bench(quick: bool) {
    let (session_counts, ops, reps, out_file): (&[usize], usize, usize, &str) = if quick {
        (&[1, 4], 200, 2, "BENCH_wire_quick.json")
    } else {
        (&[1, 2, 4, 8], 600, 3, "BENCH_wire.json")
    };

    // Sequential connect → handshake → goodbye cycles per second:
    // the session setup/teardown cost a pooled client amortises.
    let db = fresh_db();
    let mut server = Server::new(db, ServerOptions::default())
        .start()
        .expect("loopback server");
    let addr = server.local_addr().to_string();
    let cycles = if quick { 100 } else { 400 };
    let start = Instant::now();
    for _ in 0..cycles {
        RemoteDriver::connect(&*addr)
            .expect("connect")
            .goodbye()
            .expect("goodbye");
    }
    let conn_per_sec = cycles as f64 / start.elapsed().as_secs_f64();
    server.shutdown();
    println!("== wire connections ==");
    println!("  {conn_per_sec:9.1} connect/disconnect cycles/s");

    println!("== wire vs embedded (point probes) ==");
    let mut rows = Vec::new();
    for &n in session_counts {
        let mut wire_rate = 0f64;
        let mut wire_p99 = u64::MAX;
        let mut embedded_rate = 0f64;
        for _ in 0..reps {
            // Served: the same database the server owns, reached over
            // loopback TCP.
            let db = fresh_db();
            let mut server = Server::new(db, ServerOptions::default())
                .start()
                .expect("loopback server");
            let addr = server.local_addr().to_string();
            let drivers: Vec<Box<dyn Driver>> = (0..n)
                .map(|_| {
                    Box::new(RemoteDriver::connect(&*addr).expect("connect")) as Box<dyn Driver>
                })
                .collect();
            let (rate, p99) = driver_probe_run(&drivers, ops);
            server.shutdown();
            if rate > wire_rate {
                wire_rate = rate;
                wire_p99 = p99;
            }

            // Embedded: identical workload, in-process connections.
            let db = fresh_db();
            let drivers: Vec<Box<dyn Driver>> = (0..n)
                .map(|_| Box::new(EmbeddedDriver::connect(&db)) as Box<dyn Driver>)
                .collect();
            let (rate, _) = driver_probe_run(&drivers, ops);
            embedded_rate = embedded_rate.max(rate);
        }
        let overhead = embedded_rate / wire_rate;
        println!(
            "  {n} session(s): wire {wire_rate:9.1} stmt/s (p99 {:.1} us), \
             embedded {embedded_rate:9.1} stmt/s, overhead {overhead:.2}x",
            wire_p99 as f64 / 1_000.0
        );
        rows.push(format!(
            "      {{\"sessions\": {n}, \"stmt_per_sec\": {wire_rate:.1}, \
             \"p99_us\": {:.1}, \"embedded_stmt_per_sec\": {embedded_rate:.1}, \
             \"overhead_ratio\": {overhead:.3}}}",
            wire_p99 as f64 / 1_000.0
        ));
    }

    let json = format!(
        "{{\n  \"connections\": {{\n    \"per_sec\": {conn_per_sec:.1}\n  }},\n  \
         \"wire\": {{\n    \"workload\": \"point_probe_select\",\n    \
         \"sessions\": [\n{}\n    ]\n  }}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(out_file, &json).unwrap();
    println!("\nwrote {out_file}");
}

/// Each driver runs `ops` prepared point probes on its own thread;
/// returns aggregate statements per second and the p99 per-statement
/// latency in nanoseconds.
fn driver_probe_run(drivers: &[Box<dyn Driver>], ops: usize) -> (f64, u64) {
    for d in drivers {
        d.prepare("sel", "SELECT id FROM t WHERE Overlaps(Time_Extent, ?)")
            .unwrap();
        for p in PROBES.iter().cycle().take(8) {
            d.execute("sel", &[grt_ids::Value::Text((*p).into())])
                .unwrap();
        }
    }
    let barrier = Arc::new(Barrier::new(drivers.len() + 1));
    let start = Instant::now();
    let mut lats: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter()
            .enumerate()
            .map(|(w, d)| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut rng = Rng(0x9e37_79b9 + w as u64);
                    let mut lats = Vec::with_capacity(ops);
                    barrier.wait();
                    for _ in 0..ops {
                        let p = PROBES[rng.below(4) as usize];
                        let t = Instant::now();
                        d.execute("sel", &[grt_ids::Value::Text(p.into())]).unwrap();
                        lats.push(t.elapsed().as_nanos() as u64);
                    }
                    lats
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = start.elapsed();
    lats.sort_unstable();
    let p99 = lats[(lats.len() * 99 / 100).saturating_sub(1)];
    ((drivers.len() * ops) as f64 / elapsed.as_secs_f64(), p99)
}

#[derive(Clone, Copy, PartialEq)]
enum ProbeMode {
    /// Ad-hoc SQL text per probe (compiled fresh unless the database's
    /// transparent plan cache serves it).
    Adhoc,
    /// One PREPARE per session, probes issued via EXECUTE.
    Execute,
}

/// Narrow probe extents that overlap nothing in the seed data: the
/// scan is a pure index descent, so per-statement compile cost is the
/// dominant variable between the modes.
const PROBES: [&str; 4] = [
    "01/01/1990, 01/01/1990, 01/01/1990, 01/01/1990",
    "06/15/1991, 06/15/1991, 06/15/1991, 06/15/1991",
    "03/03/1992, 03/03/1992, 03/03/1992, 03/03/1992",
    "12/24/1993, 12/24/1993, 12/24/1993, 12/24/1993",
];

/// `sessions` workers each issue `ops` point-probe SELECTs; returns
/// client statements per second.
fn probe_run(db: &Database, sessions: usize, ops: usize, mode: ProbeMode) -> f64 {
    let conns: Vec<_> = (0..sessions)
        .map(|_| {
            let conn = db.connect();
            if mode == ProbeMode::Execute {
                conn.exec(
                    "PREPARE sel FROM 'SELECT id FROM t \
                     WHERE Overlaps(Time_Extent, ?)'",
                )
                .unwrap();
            }
            // Untimed warmup: touches every probe shape so the buffer
            // pool, the plan memos (including the generic promotion
            // after repeated re-costs), and the transparent cache are
            // in steady state — the timed loop measures "execute
            // many", not first-touch costs.
            for p in PROBES.iter().cycle().take(8) {
                let sql = match mode {
                    ProbeMode::Adhoc => {
                        format!("SELECT id FROM t WHERE Overlaps(Time_Extent, '{p}')")
                    }
                    ProbeMode::Execute => format!("EXECUTE sel USING '{p}'"),
                };
                conn.exec(&sql).unwrap();
            }
            conn
        })
        .collect();
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let start = Instant::now();
    std::thread::scope(|s| {
        for (w, conn) in conns.iter().enumerate() {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut rng = Rng(0x9e37_79b9 + w as u64);
                barrier.wait();
                for _ in 0..ops {
                    let p = PROBES[rng.below(4) as usize];
                    let sql = match mode {
                        ProbeMode::Adhoc => {
                            format!("SELECT id FROM t WHERE Overlaps(Time_Extent, '{p}')")
                        }
                        ProbeMode::Execute => format!("EXECUTE sel USING '{p}'"),
                    };
                    conn.exec(&sql).unwrap();
                }
            });
        }
        barrier.wait();
    });
    (sessions * ops) as f64 / start.elapsed().as_secs_f64()
}

/// Seeds a scan-heavy table and hammers it with the overlap probe from
/// `sessions` concurrent sessions; returns statements per second.
fn scan_sweep(db: &Database, sessions: usize, ops: usize) -> f64 {
    let setup = db.connect();
    for i in 0..1_500u64 {
        let e = EXTENTS[(i % 4) as usize];
        setup
            .exec(&format!("INSERT INTO t VALUES ({}, '{e}')", 8_000_000 + i))
            .unwrap();
    }
    let conns: Vec<_> = (0..sessions).map(|_| db.connect()).collect();
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let start = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter() {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ops {
                    conn.exec(&format!("SELECT id FROM t WHERE {QUERY}"))
                        .unwrap();
                }
            });
        }
        barrier.wait();
    });
    (sessions * ops) as f64 / start.elapsed().as_secs_f64()
}
