//! A persistent worker pool for wall-clock parallelism on morsel-driven
//! pipelines (`ops::parallel`).
//!
//! A fixed set of workers stays parked on a channel; a pipeline submits one
//! work-stealing round per scan range ([`WorkerPool::run_stealing_cancellable`])
//! and blocks for the indexed results.
//!
//! Invariant (see DESIGN.md): workers never touch a [`SimClock`] — the
//! clock is not `Sync`, and all simulated-cost charges stay on the caller
//! thread so parallelism can never change a `CostBreakdown`. Workers only
//! compute; callers account.

use crossbeam::channel::{unbounded, Sender};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What one lane of a [`WorkerPool::run_stealing`] call did: how many items
/// it executed, how many of those it stole from another lane's deque, and
/// how long the lane was busy. `executed`/`stolen` splits are
/// scheduling-dependent (callers must treat them as nondeterministic);
/// only the *sum* of `executed` across lanes is deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneReport {
    /// Items this lane ran (own + stolen).
    pub executed: u64,
    /// Subset of `executed` popped from another lane's deque.
    pub stolen: u64,
    /// Wall-clock busy time of the lane, nanoseconds.
    pub wall_ns: u64,
}

/// A fixed-size pool of worker threads executing submitted closures.
pub struct WorkerPool {
    tx: Sender<Job>,
    n_workers: usize,
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// The process-wide pool, spawned lazily on first use and shared by
    /// every session (concurrent sessions queue into the same workers).
    /// An `EVA_THREADS` environment override takes precedence over the
    /// detected core count (clamped to `[1, 64]`); experiments use it to
    /// pin the pool size, and `MetricsSnapshot::n_workers` records what the
    /// session actually ran with.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            let n = std::env::var("EVA_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .map(|n| n.clamp(1, 64))
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                        .clamp(2, 8)
                });
            WorkerPool::new(n)
        })
    }

    /// A pool with exactly `n` workers. Prefer [`WorkerPool::global`];
    /// dedicated pools are for tests and benchmarks.
    pub fn new(n: usize) -> WorkerPool {
        let n = n.max(1);
        let (tx, rx) = unbounded::<Job>();
        for i in 0..n {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("eva-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker");
        }
        WorkerPool { tx, n_workers: n }
    }

    /// Number of worker threads (the most lanes a stealing round uses).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Run every lane task on the pool and return their results in task
    /// order. Blocks the calling thread until all tasks finish. A panicking
    /// task is re-raised on the caller without poisoning the worker.
    #[allow(clippy::type_complexity)]
    fn run<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let (done_tx, done_rx) = unbounded::<(usize, std::thread::Result<T>)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let done_tx = done_tx.clone();
            let job: Job = Box::new(move || {
                let result = std::panic::catch_unwind(AssertUnwindSafe(task));
                let _ = done_tx.send((i, result));
            });
            self.tx.send(job).expect("worker pool channel closed");
        }
        drop(done_tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, result) = done_rx.recv().expect("pool worker dropped a task");
            match result {
                Ok(v) => out[i] = Some(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("pool task result missing"))
            .collect()
    }

    /// Run `n_items` independent work items with per-lane deques and work
    /// stealing, returning results **in item order** plus one
    /// [`LaneReport`] per lane.
    ///
    /// Items are pre-assigned round-robin to `min(n_workers, n_items)`
    /// lanes; each lane pops its own deque from the front and, when empty,
    /// steals from the *back* of the other lanes' deques. Which lane runs
    /// which item is scheduling-dependent, but the result vector is
    /// scattered back by item index, so the output (and anything the caller
    /// derives from it in item order) is deterministic regardless of
    /// stealing. `work` receives the item index and must be pure compute:
    /// no clock, no metrics (the caller-thread charging rule).
    #[allow(clippy::type_complexity)]
    pub fn run_stealing<T, F>(&self, n_items: usize, work: F) -> (Vec<T>, Vec<LaneReport>)
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let (results, reports) = self.run_stealing_cancellable(n_items, || false, work);
        let results = results
            .into_iter()
            .map(|slot| slot.expect("work-stealing item result missing"))
            .collect();
        (results, reports)
    }

    /// [`run_stealing`](Self::run_stealing) with a cooperative cancellation
    /// probe: every lane calls `cancel()` before each dequeue/steal and
    /// stops draining once it returns `true`. Results come back **in item
    /// order** with `None` for items no lane ran — the caller decides what
    /// a gap means (typically: replay accounting for the completed prefix,
    /// then surface `EvaError::Cancelled`). The pool itself stays fully
    /// reusable after a cancelled round; lanes park back on the shared
    /// channel exactly as after a completed one.
    #[allow(clippy::type_complexity)]
    pub fn run_stealing_cancellable<T, F, C>(
        &self,
        n_items: usize,
        cancel: C,
        work: F,
    ) -> (Vec<Option<T>>, Vec<LaneReport>)
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
        C: Fn() -> bool + Send + Sync + 'static,
    {
        if n_items == 0 {
            return (Vec::new(), Vec::new());
        }
        let n_lanes = self.n_workers.min(n_items).max(1);
        let mut deques: Vec<Mutex<VecDeque<usize>>> =
            (0..n_lanes).map(|_| Mutex::new(VecDeque::new())).collect();
        for item in 0..n_items {
            deques[item % n_lanes].get_mut().unwrap().push_back(item);
        }
        let deques = Arc::new(deques);
        let work = Arc::new(work);
        let cancel = Arc::new(cancel);
        let tasks: Vec<Box<dyn FnOnce() -> (Vec<(usize, T)>, LaneReport) + Send>> = (0..n_lanes)
            .map(|lane| {
                let deques = Arc::clone(&deques);
                let work = Arc::clone(&work);
                let cancel = Arc::clone(&cancel);
                Box::new(move || {
                    let started = Instant::now();
                    let mut done: Vec<(usize, T)> = Vec::new();
                    let mut report = LaneReport::default();
                    loop {
                        // Cooperative cancellation: observed between items,
                        // never mid-item.
                        if cancel() {
                            break;
                        }
                        // Own work first (front of own deque)...
                        let mut next = deques[lane].lock().unwrap().pop_front();
                        let mut stolen = false;
                        if next.is_none() {
                            // ...then steal from the back of the others.
                            for offset in 1..deques.len() {
                                let victim = (lane + offset) % deques.len();
                                if let Some(item) = deques[victim].lock().unwrap().pop_back() {
                                    next = Some(item);
                                    stolen = true;
                                    break;
                                }
                            }
                        }
                        let Some(item) = next else { break };
                        done.push((item, work(item)));
                        report.executed += 1;
                        if stolen {
                            report.stolen += 1;
                        }
                    }
                    report.wall_ns = started.elapsed().as_nanos() as u64;
                    (done, report)
                }) as Box<dyn FnOnce() -> (Vec<(usize, T)>, LaneReport) + Send>
            })
            .collect();
        let lane_outs = self.run(tasks);
        let mut results: Vec<Option<T>> = (0..n_items).map(|_| None).collect();
        let mut reports = Vec::with_capacity(n_lanes);
        for (done, report) in lane_outs {
            for (item, value) in done {
                debug_assert!(results[item].is_none(), "item {item} ran twice");
                results[item] = Some(value);
            }
            reports.push(report);
        }
        (results, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_shared_and_concurrent() {
        let mut joins = Vec::new();
        for t in 0..4 {
            joins.push(std::thread::spawn(move || {
                WorkerPool::global()
                    .run_stealing(16, move |i| t * 100 + i)
                    .0
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            let out = j.join().unwrap();
            assert_eq!(out[0], t * 100);
            assert_eq!(out.len(), 16);
        }
    }

    #[test]
    fn stealing_results_come_back_in_item_order() {
        let pool = WorkerPool::new(4);
        let (out, reports) = pool.run_stealing(33, |i| i * 3);
        assert_eq!(out, (0..33).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(reports.len(), 4);
        let executed: u64 = reports.iter().map(|r| r.executed).sum();
        let stolen: u64 = reports.iter().map(|r| r.stolen).sum();
        assert_eq!(executed, 33);
        assert!(stolen <= executed);
    }

    #[test]
    fn stealing_handles_fewer_items_than_workers() {
        let pool = WorkerPool::new(8);
        let (out, reports) = pool.run_stealing(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        // Lanes are capped at the item count — no idle lanes reported.
        assert_eq!(reports.len(), 3);
        let (out, reports) = pool.run_stealing(0, |i: usize| i);
        assert!(out.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn skewed_items_all_complete_under_stealing() {
        // One pathologically slow item pinned to lane 0: the other lanes
        // drain everything else by stealing, and the result order still
        // comes back by item index.
        let pool = WorkerPool::new(4);
        let (out, reports) = pool.run_stealing(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(reports.iter().map(|r| r.executed).sum::<u64>(), 64);
    }

    #[test]
    fn stealing_runs_every_item_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = WorkerPool::new(3);
        let hits = Arc::new((0..50).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let hits2 = Arc::clone(&hits);
        let (out, _) = pool.run_stealing(50, move |i| {
            hits2[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 50);
        for h in hits.iter() {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn cancellable_with_never_cancel_matches_run_stealing() {
        let pool = WorkerPool::new(4);
        let (out, reports) = pool.run_stealing_cancellable(17, || false, |i| i * 5);
        assert_eq!(out, (0..17).map(|i| Some(i * 5)).collect::<Vec<_>>());
        assert_eq!(reports.iter().map(|r| r.executed).sum::<u64>(), 17);
    }

    #[test]
    fn cancelled_round_leaves_gaps_and_a_reusable_pool() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = WorkerPool::new(2);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_probe = Arc::clone(&stop);
        let stop_work = Arc::clone(&stop);
        let (out, _) = pool.run_stealing_cancellable(
            64,
            move || stop_probe.load(Ordering::SeqCst),
            move |i| {
                if i == 0 {
                    // Lane 0's first item flips the flag; every other item
                    // stalls until it does, so lanes cannot drain the round
                    // before the cancellation lands.
                    stop_work.store(true, Ordering::SeqCst);
                } else {
                    let deadline = Instant::now() + std::time::Duration::from_secs(5);
                    while !stop_work.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                }
                i
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], Some(0));
        assert!(
            out.iter().any(|slot| slot.is_none()),
            "cancellation mid-round must leave unran items"
        );
        // The pool is fully reusable after a cancelled round.
        let (out, _) = pool.run_stealing(8, |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn item_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_stealing(2, |i| if i == 1 { panic!("boom") } else { i });
        }));
        assert!(result.is_err());
        // The worker that caught the panic is still usable.
        assert_eq!(pool.run_stealing(2, |i| i + 7).0, vec![7, 8]);
    }
}
