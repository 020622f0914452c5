//! The closed-loop client driver: `n` client threads, each issuing its
//! next statement as soon as the previous one returns, until a deadline
//! or an operation budget runs out.

use crate::span;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall-clock seconds.
    Time(Duration),
    /// Statements per client (deterministic passes).
    Ops(u64),
}

/// The outcome of one statement, as the client saw it.
pub enum Step {
    /// Completed, with its latency.
    Done { ns: u64, write: bool },
    /// Surfaced a lock timeout or deadlock after the engine's retries.
    Failed { write: bool },
}

/// One client of a workload. `step` issues statement `op`; an `Err`
/// is a failed output check and stops the run.
pub trait Client: Send {
    fn step(&mut self, op: u64) -> Result<Step, String>;
    /// A digest of every result this client has seen.
    fn digest(&self) -> u64;
}

/// Folds `values` into a running FNV-1a digest.
pub fn fold(digest: &mut u64, values: &[u64]) {
    for v in values {
        for b in v.to_le_bytes() {
            *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The FNV-1a starting value.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic xorshift64* generator: one stream per client (and
/// per generated input) of a seeded run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng((seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(stream * 2 + 1) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One attempted statement.
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    /// When it finished, ns after the run started.
    pub at_ns: u64,
    /// Its latency; a failed statement is charged the whole run
    /// window, so it sits above any latency limit.
    pub ns: u64,
    pub write: bool,
    pub failed: bool,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub stmts: Vec<Stmt>,
    pub elapsed: Duration,
}

/// Completed statements per stretch of the throughput median.
const STRETCH_STMTS: usize = 100;

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.stmts.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.stmts.iter().filter(|s| s.failed).count() as u64
    }

    pub fn writes(&self) -> u64 {
        self.stmts.iter().filter(|s| s.write).count() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.elapsed.as_secs_f64()
    }

    /// Sorted latencies of the statements `keep` selects.
    pub fn latencies(&self, keep: impl Fn(&Stmt) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .stmts
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Throughput as the median, over consecutive stretches of the
    /// window holding [`STRETCH_STMTS`] statements each, of the
    /// statements completed per second. A stall lengthens only the
    /// stretches it falls in, so stalls in a minority of them (a
    /// checkpoint, one slow fsync, a preempted client) do not move it;
    /// they show in the tail latencies instead. Returns the median and
    /// the number of stretches.
    pub fn median_ops_per_s(&self) -> (f64, usize) {
        let mut done: Vec<(u64, bool)> = self.stmts.iter().map(|s| (s.at_ns, s.failed)).collect();
        if done.len() < STRETCH_STMTS {
            return (self.ops_per_s(), 1);
        }
        done.sort_unstable();
        let mut from = 0u64;
        let rates: Vec<f64> = done
            .chunks_exact(STRETCH_STMTS)
            .map(|c| {
                let to = c[STRETCH_STMTS - 1].0;
                let ok = c.iter().filter(|(_, failed)| !failed).count();
                let rate = ok as f64 * 1e9 / to.saturating_sub(from).max(1) as f64;
                from = to;
                rate
            })
            .collect();
        let n = rates.len();
        (median(rates), n)
    }

    /// The median latency over every statement of the window; a
    /// failed statement counts as slower than any completed one.
    pub fn p50_ns(&self) -> f64 {
        quantile(&self.latencies(|_| true), 0.50)
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Times `f` as one client statement: the thread is marked as running
/// statement `stmt` for the span recorder while it runs.
pub fn timed<R>(stmt: u64, f: impl FnOnce() -> R) -> (R, u64) {
    span::set_statement(stmt);
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    span::set_statement(0);
    (r, ns)
}

/// Exact quantile of a sorted sample (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Drives `clients` in a closed loop. Each runs on its own thread,
/// named so the span recorder counts its work as client work.
pub fn run<C: Client>(clients: &mut [C], budget: Budget) -> Result<Measured, String> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(clients.len() + 1);
    let mut window = Duration::ZERO;
    let per_client: Vec<Result<(Vec<Stmt>, Duration), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (stop, barrier) = (&stop, &barrier);
                std::thread::Builder::new()
                    .name(format!("perfbench-client-{i}"))
                    .spawn_scoped(s, move || {
                        barrier.wait();
                        let start = Instant::now();
                        let mut steps = Vec::new();
                        let mut op = 0u64;
                        let outcome = loop {
                            let done = match budget {
                                Budget::Time(d) => start.elapsed() >= d,
                                Budget::Ops(n) => op >= n,
                            };
                            if done || stop.load(Ordering::Relaxed) {
                                break Ok(());
                            }
                            let (ns, write, failed) = match client.step(op) {
                                Ok(Step::Done { ns, write }) => (ns, write, false),
                                Ok(Step::Failed { write }) => (0, write, true),
                                Err(e) => {
                                    stop.store(true, Ordering::Relaxed);
                                    break Err(e);
                                }
                            };
                            let at_ns = start.elapsed().as_nanos() as u64;
                            steps.push(Stmt {
                                at_ns,
                                ns,
                                write,
                                failed,
                            });
                            op += 1;
                        };
                        outcome.map(|()| (steps, start.elapsed()))
                    })
                    .expect("spawn client thread")
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in per_client {
        let (steps, elapsed) = r?;
        window = window.max(elapsed);
        all.extend(steps);
    }
    let window_ns = window.as_nanos() as u64;
    for s in &mut all {
        if s.failed {
            s.ns = window_ns;
        }
    }
    Ok(Measured {
        stmts: all,
        elapsed: window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn stretch_medians_shed_a_slow_stretch() {
        // Five seconds; the fourth completes 200 statements ten times
        // slower, the others 1000 each.
        let stmts: Vec<Stmt> = (0..5u64)
            .flat_map(|sec| {
                let (n, ns) = if sec == 3 {
                    (200, 10_000)
                } else {
                    (1000, 1_000)
                };
                (1..=n).map(move |j| Stmt {
                    at_ns: sec * 1_000_000_000 + j * (1_000_000_000 / n),
                    ns,
                    write: false,
                    failed: false,
                })
            })
            .collect();
        let m = Measured {
            stmts,
            elapsed: Duration::from_secs(5),
        };
        assert_eq!(m.median_ops_per_s(), (1000.0, 42));
        assert_eq!(m.p50_ns(), 1_000.0);
        assert_eq!(m.ops_per_s(), 840.0);
    }
}
