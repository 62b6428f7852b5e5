//! Admission control: bounded concurrent-query slots with a FIFO wait
//! queue and load shedding.
//!
//! An [`AdmissionController`] gates [`EvaDb`](crate::EvaDb) statement
//! execution. Queries take a slot before running and release it (RAII
//! [`AdmissionPermit`]) when they finish. When every slot is busy, arrivals
//! queue in FIFO order; beyond the high-water mark — or past the per-queue
//! deadline — they are *shed* with
//! [`EvaError::Cancelled`]`{ reason: Shed }` instead of piling up.
//!
//! The controller is deliberately session-external: `EvaDb` is a
//! single-threaded session object, so overload scenarios run one session
//! per thread, all sharing one cloned controller. Admission counters
//! (`queries_admitted` / `queries_shed`) are recorded on the *session's*
//! metrics sink outside the per-query metrics window, so per-query deltas
//! (fuzz oracles, `EXPLAIN ANALYZE`) are unaffected.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eva_common::metrics::Counter;
use eva_common::{CancelReason, EvaError, MetricsSink, Result};

/// Admission policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent-query slots.
    pub max_concurrent: usize,
    /// Wait-queue high-water mark: arrivals finding this many waiters are
    /// shed immediately.
    pub max_waiters: usize,
    /// How long a queued query waits (wall milliseconds) before being shed.
    /// `None` waits indefinitely.
    pub queue_deadline_ms: Option<u64>,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: 4,
            max_waiters: 16,
            queue_deadline_ms: Some(10_000),
        }
    }
}

impl AdmissionConfig {
    /// Read `EVA_MAX_CONCURRENT_QUERIES`; `None` when unset or unparseable
    /// (admission control stays off by default).
    pub fn from_env() -> Option<AdmissionConfig> {
        let v = std::env::var("EVA_MAX_CONCURRENT_QUERIES").ok()?;
        let n: usize = v.trim().parse().ok()?;
        if n == 0 {
            return None;
        }
        Some(AdmissionConfig {
            max_concurrent: n,
            ..AdmissionConfig::default()
        })
    }
}

/// A point-in-time view of the controller, for `\health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Queries currently holding a slot.
    pub active: usize,
    /// Queries currently queued.
    pub waiting: usize,
    /// Total admitted since creation.
    pub admitted: u64,
    /// Total shed since creation.
    pub shed: u64,
}

#[derive(Debug, Default)]
struct Lanes {
    active: usize,
    /// FIFO queue of waiting tickets; the head is served first.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

#[derive(Debug)]
struct Inner {
    cfg: AdmissionConfig,
    lanes: Mutex<Lanes>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// Shared admission gate (cheap to clone; clones share state).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

/// RAII slot: dropping it frees the slot and wakes the queue head.
#[derive(Debug)]
pub struct AdmissionPermit {
    inner: Arc<Inner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut lanes = self.inner.lanes.lock().expect("admission lock");
        lanes.active = lanes.active.saturating_sub(1);
        drop(lanes);
        self.inner.cv.notify_all();
    }
}

impl AdmissionController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            inner: Arc::new(Inner {
                cfg,
                lanes: Mutex::new(Lanes::default()),
                cv: Condvar::new(),
                admitted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
            }),
        }
    }

    /// The policy this controller enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.inner.cfg
    }

    /// Take a slot, waiting FIFO behind earlier arrivals. Sheds with
    /// [`EvaError::Cancelled`]`{ Shed }` when the queue is past its
    /// high-water mark or the queue deadline expires. Records the outcome
    /// on `metrics`.
    pub fn admit(&self, metrics: &MetricsSink) -> Result<AdmissionPermit> {
        let cfg = self.inner.cfg;
        let deadline = cfg
            .queue_deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut lanes = self.inner.lanes.lock().expect("admission lock");

        // Fast path: a free slot and nobody queued ahead.
        if lanes.active < cfg.max_concurrent && lanes.queue.is_empty() {
            lanes.active += 1;
            drop(lanes);
            return Ok(self.admitted(metrics));
        }

        // Load shedding: past the high-water mark, don't even queue.
        if lanes.queue.len() >= cfg.max_waiters {
            drop(lanes);
            return Err(self.shed(metrics, "admission queue full"));
        }

        let ticket = lanes.next_ticket;
        lanes.next_ticket += 1;
        lanes.queue.push_back(ticket);
        loop {
            let head = lanes.queue.front() == Some(&ticket);
            if head && lanes.active < cfg.max_concurrent {
                lanes.queue.pop_front();
                lanes.active += 1;
                drop(lanes);
                // The next waiter may also fit (slots can free in bursts).
                self.inner.cv.notify_all();
                return Ok(self.admitted(metrics));
            }
            lanes = match deadline {
                Some(cutoff) => {
                    let now = Instant::now();
                    if now >= cutoff {
                        lanes.queue.retain(|&t| t != ticket);
                        drop(lanes);
                        // Our departure may unblock the waiter behind us.
                        self.inner.cv.notify_all();
                        return Err(self.shed(metrics, "queue deadline exceeded"));
                    }
                    self.inner
                        .cv
                        .wait_timeout(lanes, cutoff - now)
                        .expect("admission lock")
                        .0
                }
                None => self.inner.cv.wait(lanes).expect("admission lock"),
            };
        }
    }

    fn admitted(&self, metrics: &MetricsSink) -> AdmissionPermit {
        self.inner.admitted.fetch_add(1, Ordering::Relaxed);
        metrics.add(Counter::queries_admitted, 1);
        AdmissionPermit {
            inner: Arc::clone(&self.inner),
        }
    }

    fn shed(&self, metrics: &MetricsSink, why: &str) -> EvaError {
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
        metrics.add(Counter::queries_shed, 1);
        EvaError::cancelled(
            CancelReason::Shed,
            format!(
                "{why} ({} slots, {} waiters max)",
                self.inner.cfg.max_concurrent, self.inner.cfg.max_waiters
            ),
        )
    }

    /// Current occupancy and lifetime totals.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let lanes = self.inner.lanes.lock().expect("admission lock");
        AdmissionSnapshot {
            active: lanes.active,
            waiting: lanes.queue.len(),
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn cfg(max_concurrent: usize, max_waiters: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent,
            max_waiters,
            queue_deadline_ms: None,
        }
    }

    #[test]
    fn slots_free_on_drop() {
        let ctrl = AdmissionController::new(cfg(1, 0));
        let metrics = MetricsSink::new();
        let p = ctrl.admit(&metrics).unwrap();
        assert_eq!(ctrl.snapshot().active, 1);
        // Slot busy, queue full (0 waiters allowed) → shed.
        let err = ctrl.admit(&metrics).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Shed));
        drop(p);
        assert_eq!(ctrl.snapshot().active, 0);
        let _p2 = ctrl.admit(&metrics).unwrap();
        let s = ctrl.snapshot();
        assert_eq!((s.admitted, s.shed), (2, 1));
        assert_eq!(metrics.snapshot().queries_admitted, 2);
        assert_eq!(metrics.snapshot().queries_shed, 1);
    }

    #[test]
    fn queue_deadline_sheds_waiters() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_waiters: 4,
            queue_deadline_ms: Some(20),
        });
        let metrics = MetricsSink::new();
        let _hold = ctrl.admit(&metrics).unwrap();
        let err = ctrl.admit(&metrics).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Shed));
        assert!(err.to_string().contains("queue deadline"), "{err}");
        assert_eq!(ctrl.snapshot().waiting, 0, "shed waiter left the queue");
    }

    #[test]
    fn width_one_serializes_and_serves_fifo() {
        let ctrl = AdmissionController::new(cfg(1, 16));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let first = ctrl
            .admit(&MetricsSink::new())
            .expect("first arrival admits");
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let (ctrl, running, peak, order, gate) = (
                ctrl.clone(),
                Arc::clone(&running),
                Arc::clone(&peak),
                Arc::clone(&order),
                Arc::clone(&gate),
            );
            handles.push(std::thread::spawn(move || {
                // Stagger arrivals so queue order is deterministic.
                {
                    let (lock, cv) = &*gate;
                    let mut turn = lock.lock().unwrap();
                    while !*turn {
                        turn = cv.wait(turn).unwrap();
                    }
                }
                std::thread::sleep(Duration::from_millis(20 * i));
                let metrics = MetricsSink::new();
                let permit = ctrl.admit(&metrics).unwrap();
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                order.lock().unwrap().push(i);
                std::thread::sleep(Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }));
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // Hold the slot long enough for all four arrivals to queue up.
        std::thread::sleep(Duration::from_millis(120));
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "width-1 serializes");
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO order");
    }
}
