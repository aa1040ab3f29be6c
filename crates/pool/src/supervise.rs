//! Supervised job execution: cooperative cancellation, wall-clock
//! deadlines, panic quarantine, and bounded retry.
//!
//! [`Pool::map`](crate::Pool::map) is the right tool for a batch of
//! trusted pure functions: a panic anywhere aborts the whole batch.
//! Long campaigns (thousands of experiments or fuzz scenarios over
//! hours) need the opposite discipline — one bad job must not take the
//! suite down — so [`Supervisor::map_supervised`] quarantines every
//! per-job failure into a [`JobOutcome`] instead:
//!
//! - **panic quarantine** — each job runs on its own thread under
//!   `catch_unwind`; a panic becomes [`JobOutcome::Panicked`] with the
//!   original payload message, and the rest of the batch keeps running;
//! - **deadlines** — a dedicated monitor thread watches every in-flight
//!   job and, once its wall-clock deadline passes, cancels the job's
//!   token and releases the worker ([`JobOutcome::TimedOut`]); the hung
//!   job thread is abandoned (it keeps running detached until the
//!   process exits — quarantine, not preemption);
//! - **cancellation** — a [`CancelToken`] is cooperative and
//!   hierarchical: cancelling a parent cancels every child. Each job
//!   receives a child of the supervisor's batch token through
//!   [`JobCtx`]; cooperative jobs poll it and return early (their
//!   outcome is `Ok`), non-cooperative jobs are abandoned and reported
//!   [`JobOutcome::Cancelled`]. Workers poll every few milliseconds, so
//!   cancellation latency is bounded by [`POLL_INTERVAL`] plus one
//!   journal/checkpoint interval of the caller;
//! - **retry with backoff** — panicked and timed-out attempts are
//!   retried up to a bounded attempt count with exponential backoff;
//!   [`JobReport::attempts`] records the cost.
//!
//! Results come back in submission order, so a supervised batch is as
//! deterministic as its jobs: outcomes depend only on job behaviour,
//! never on scheduling.
//!
//! ```
//! use mapg_pool::{JobOutcome, Supervisor};
//!
//! let reports = Supervisor::new(4).map_supervised(vec![1u64, 2, 3], |&x, _ctx| {
//!     if x == 2 {
//!         panic!("bad item");
//!     }
//!     x * 10
//! });
//! assert!(matches!(reports[0].outcome, JobOutcome::Ok(10)));
//! assert!(matches!(reports[1].outcome, JobOutcome::Panicked { .. }));
//! assert!(matches!(reports[2].outcome, JobOutcome::Ok(30)));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often waiting workers re-check their job's token and timeout
/// flag. Bounds cancellation and deadline-detection latency.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How often the deadline monitor scans in-flight jobs.
const MONITOR_TICK: Duration = Duration::from_millis(2);

/// A cooperative, hierarchical cancellation token.
///
/// Cancelling a token cancels every token derived from it via
/// [`child`](CancelToken::child); [`is_cancelled`](CancelToken::is_cancelled)
/// walks the parent chain. Tokens are cheap to clone (an `Arc`) and
/// cancellation is sticky — there is no un-cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh root token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A child token: cancelled when either it or any ancestor is
    /// cancelled.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Cancels this token (and, transitively, every child).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True when this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut token = self;
        loop {
            if token.inner.cancelled.load(Ordering::Acquire) {
                return true;
            }
            match &token.inner.parent {
                Some(parent) => token = parent,
                None => return false,
            }
        }
    }
}

/// Per-job context handed to the job closure.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// This job's cancellation token (a child of the batch token; also
    /// cancelled when the job's deadline expires). Long-running
    /// cooperative jobs should poll it and return early.
    pub token: CancelToken,
    /// 1-based attempt number (first run is 1, first retry is 2, …).
    pub attempt: u32,
}

/// How one supervised job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<R> {
    /// The job returned a value.
    Ok(R),
    /// The job panicked; the batch kept running.
    Panicked {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The job exceeded its wall-clock deadline and was abandoned.
    TimedOut {
        /// The deadline that was enforced.
        deadline: Duration,
    },
    /// The batch was cancelled before (or while) the job ran.
    Cancelled,
}

impl<R> JobOutcome<R> {
    /// True for [`JobOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The result value, when the job succeeded.
    pub fn ok(&self) -> Option<&R> {
        match self {
            JobOutcome::Ok(value) => Some(value),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the result value if any.
    pub fn into_ok(self) -> Option<R> {
        match self {
            JobOutcome::Ok(value) => Some(value),
            _ => None,
        }
    }

    /// A stable machine-readable tag: `ok`, `panicked`, `timed-out` or
    /// `cancelled` (used by manifests and journals).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// The record of one supervised job: final outcome, attempts spent, and
/// total wall time across attempts (including backoff sleeps).
#[derive(Debug, Clone)]
pub struct JobReport<R> {
    /// How the job's final attempt ended.
    pub outcome: JobOutcome<R>,
    /// Attempts spent (1 = no retry).
    pub attempts: u32,
    /// Wall time across all attempts.
    pub wall: Duration,
}

/// A supervised batch executor: worker count, optional per-job
/// deadline, a batch [`CancelToken`], and a bounded retry policy.
#[derive(Clone)]
pub struct Supervisor {
    jobs: usize,
    deadline: Option<Duration>,
    token: CancelToken,
    max_attempts: u32,
    backoff: Duration,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("jobs", &self.jobs)
            .field("deadline", &self.deadline)
            .field("max_attempts", &self.max_attempts)
            .field("backoff", &self.backoff)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A supervisor running at most `jobs` items concurrently, with no
    /// deadline and no retry.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "job count must be at least 1");
        Supervisor {
            jobs,
            deadline: None,
            token: CancelToken::new(),
            max_attempts: 1,
            backoff: Duration::from_millis(100),
        }
    }

    /// Sets a per-job wall-clock deadline, enforced by the monitor
    /// thread.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Uses `token` as the batch cancellation token (so an external
    /// holder — a signal handler, a server, a test — can cancel the
    /// batch while it runs).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Enables retry: up to `max_attempts` total attempts per job, with
    /// exponential backoff starting at `backoff` (doubled per retry).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn with_retries(mut self, max_attempts: u32, backoff: Duration) -> Self {
        assert!(max_attempts > 0, "max_attempts must be at least 1");
        self.max_attempts = max_attempts;
        self.backoff = backoff;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured per-job deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The batch cancellation token. Cancelling it stops the batch:
    /// unstarted jobs come back [`JobOutcome::Cancelled`], in-flight
    /// cooperative jobs see their child token cancelled, in-flight
    /// non-cooperative jobs are abandoned.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.token
    }

    /// Applies `f` to every item under supervision, returning one
    /// [`JobReport`] per item in **submission order**.
    ///
    /// Each attempt runs on a dedicated job thread so panics and
    /// deadline overruns are quarantined per job instead of aborting
    /// the batch. `T: Sync + 'static` and `F: 'static` are required
    /// because an abandoned (hung) job thread may outlive this call.
    pub fn map_supervised<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<JobReport<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T, &JobCtx) -> R + Send + Sync + 'static,
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let items = Arc::new(items);
        let f = Arc::new(f);
        let results: Vec<Mutex<Option<JobReport<R>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let inflight = InFlightRegistry::default();
        let workers = self.jobs.min(total);
        let live_workers = AtomicUsize::new(workers);

        std::thread::scope(|scope| {
            // Deadline monitor: scans in-flight jobs and trips the ones
            // whose wall-clock deadline has passed. Only needed when a
            // deadline is configured — batch cancellation propagates
            // through the token hierarchy without help. Exits once the
            // last worker has retired (the scope joins it afterwards).
            if self.deadline.is_some() {
                scope.spawn(|| {
                    while live_workers.load(Ordering::Acquire) > 0 {
                        inflight.expire_overdue();
                        std::thread::park_timeout(MONITOR_TICK);
                    }
                });
            }
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= total {
                            break;
                        }
                        let report = self.run_one(index, &items, &f, &inflight);
                        *results[index].lock().expect("result slot poisoned") = Some(report);
                    }
                    live_workers.fetch_sub(1, Ordering::Release);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without reporting")
            })
            .collect()
    }

    /// Runs one item through the attempt loop.
    fn run_one<T, R, F>(
        &self,
        index: usize,
        items: &Arc<Vec<T>>,
        f: &Arc<F>,
        inflight: &InFlightRegistry,
    ) -> JobReport<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T, &JobCtx) -> R + Send + Sync + 'static,
    {
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if self.token.is_cancelled() {
                return JobReport {
                    outcome: JobOutcome::Cancelled,
                    attempts,
                    wall: started.elapsed(),
                };
            }
            let outcome = self.run_attempt(index, attempts, items, f, inflight);
            let retry = matches!(
                outcome,
                JobOutcome::Panicked { .. } | JobOutcome::TimedOut { .. }
            );
            if retry && attempts < self.max_attempts {
                let backoff = self.backoff.saturating_mul(1 << (attempts - 1).min(16));
                // Back off in poll-sized slices so batch cancellation
                // still lands promptly mid-sleep.
                let wake = Instant::now() + backoff;
                while Instant::now() < wake && !self.token.is_cancelled() {
                    std::thread::sleep(POLL_INTERVAL.min(backoff));
                }
                continue;
            }
            return JobReport {
                outcome,
                attempts,
                wall: started.elapsed(),
            };
        }
    }

    /// Runs one attempt on a fresh job thread and waits for completion,
    /// timeout, or cancellation.
    fn run_attempt<T, R, F>(
        &self,
        index: usize,
        attempt: u32,
        items: &Arc<Vec<T>>,
        f: &Arc<F>,
        inflight: &InFlightRegistry,
    ) -> JobOutcome<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T, &JobCtx) -> R + Send + Sync + 'static,
    {
        let job_token = self.token.child();
        let timed_out = Arc::new(AtomicBool::new(false));
        let guard = inflight.register(InFlight {
            deadline: self.deadline.map(|d| Instant::now() + d),
            token: job_token.clone(),
            timed_out: timed_out.clone(),
        });

        let (tx, rx) = mpsc::channel();
        let ctx = JobCtx {
            token: job_token.clone(),
            attempt,
        };
        let spawned = {
            let items = Arc::clone(items);
            let f = Arc::clone(f);
            std::thread::Builder::new()
                .name(format!("mapg-job-{index}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(&items[index], &ctx)));
                    // The receiver may be gone (job abandoned) — ignore.
                    let _ = tx.send(result.map_err(panic_message));
                })
        };
        let mut handle = match spawned {
            Ok(handle) => Some(handle),
            Err(error) => {
                drop(guard);
                return JobOutcome::Panicked {
                    message: format!("cannot spawn job thread: {error}"),
                };
            }
        };
        // Join the job thread whenever it actually finished (result or
        // panic received): its teardown releases the closure's shared
        // resources (journal locks, observer handles), which callers
        // may reuse immediately after `map_supervised` returns. Only
        // abandoned attempts — timed out or cancelled, possibly stuck —
        // stay detached.
        let reap = |handle: &mut Option<std::thread::JoinHandle<()>>| {
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        };

        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(Ok(value)) => {
                    reap(&mut handle);
                    return JobOutcome::Ok(value);
                }
                Ok(Err(message)) => {
                    reap(&mut handle);
                    return JobOutcome::Panicked { message };
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Deadline first: the monitor cancels the job token
                    // *after* setting the flag, so a timed-out job is
                    // never misreported as merely cancelled.
                    if timed_out.load(Ordering::Acquire) {
                        return JobOutcome::TimedOut {
                            deadline: self.deadline.unwrap_or_default(),
                        };
                    }
                    if job_token.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    reap(&mut handle);
                    return JobOutcome::Panicked {
                        message: "job thread exited without reporting".to_owned(),
                    };
                }
            }
        }
    }
}

/// One registered in-flight attempt, visible to the monitor.
struct InFlight {
    deadline: Option<Instant>,
    token: CancelToken,
    timed_out: Arc<AtomicBool>,
}

/// The monitor's view of running attempts. Slots are keyed so removal
/// is O(1) amortized without an external slab crate.
#[derive(Default)]
struct InFlightRegistry {
    slots: Mutex<Vec<Option<InFlight>>>,
}

impl InFlightRegistry {
    fn register(&self, entry: InFlight) -> InFlightGuard<'_> {
        let mut slots = self.slots.lock().expect("in-flight registry poisoned");
        let key = match slots.iter().position(Option::is_none) {
            Some(free) => {
                slots[free] = Some(entry);
                free
            }
            None => {
                slots.push(Some(entry));
                slots.len() - 1
            }
        };
        InFlightGuard {
            registry: self,
            key,
        }
    }

    /// Trips every registered attempt whose deadline has passed: sets
    /// its timed-out flag, then cancels its token (ordering matters —
    /// see `run_attempt`).
    fn expire_overdue(&self) {
        let now = Instant::now();
        let slots = self.slots.lock().expect("in-flight registry poisoned");
        for entry in slots.iter().flatten() {
            if let Some(deadline) = entry.deadline {
                if now >= deadline && !entry.timed_out.load(Ordering::Acquire) {
                    entry.timed_out.store(true, Ordering::Release);
                    entry.token.cancel();
                }
            }
        }
    }
}

struct InFlightGuard<'a> {
    registry: &'a InFlightRegistry,
    key: usize,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self
            .registry
            .slots
            .lock()
            .expect("in-flight registry poisoned");
        slots[self.key] = None;
    }
}

/// Renders a panic payload as text, preferring the original message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn tokens_are_hierarchical_and_sticky() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(!grandchild.is_cancelled());
        root.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        // Cancelling a child never propagates upward.
        let root = CancelToken::new();
        let child = root.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!root.is_cancelled());
    }

    #[test]
    fn ok_batch_matches_plain_map() {
        let reports = Supervisor::new(4).map_supervised((0..16u64).collect(), |&x, _| x * x);
        assert_eq!(reports.len(), 16);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.outcome.ok(), Some(&((i as u64) * (i as u64))));
            assert_eq!(report.attempts, 1);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let reports: Vec<JobReport<u32>> =
            Supervisor::new(4).map_supervised(Vec::new(), |&x: &u32, _| x);
        assert!(reports.is_empty());
    }

    #[test]
    fn panic_is_quarantined_not_propagated() {
        let reports = Supervisor::new(2).map_supervised((0..8u32).collect(), |&x, _| {
            if x == 3 {
                panic!("boom at {x}");
            }
            x
        });
        assert_eq!(reports.len(), 8);
        match &reports[3].outcome {
            JobOutcome::Panicked { message } => assert_eq!(message, "boom at 3"),
            other => panic!("expected quarantined panic, got {other:?}"),
        }
        let ok = reports.iter().filter(|r| r.outcome.is_ok()).count();
        assert_eq!(ok, 7, "every other job should complete");
    }

    /// A panic in the *last* job of the batch must still be quarantined
    /// (no off-by-one in the pull loop or result collection).
    #[test]
    fn panic_in_last_job_is_quarantined() {
        let reports = Supervisor::new(3).map_supervised((0..5u32).collect(), |&x, _| {
            if x == 4 {
                panic!("last job");
            }
            x
        });
        assert_eq!(reports[4].outcome.label(), "panicked");
        assert!(reports[..4].iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn hung_job_times_out_and_batch_completes() {
        let supervisor = Supervisor::new(2).with_deadline(Duration::from_millis(50));
        let started = Instant::now();
        let reports = supervisor.map_supervised((0..4u32).collect(), |&x, _| {
            if x == 1 {
                // Non-cooperative hang: ignores its token entirely.
                std::thread::sleep(Duration::from_secs(30));
            }
            x
        });
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "hung job stalled the batch"
        );
        match reports[1].outcome {
            JobOutcome::TimedOut { deadline } => {
                assert_eq!(deadline, Duration::from_millis(50));
            }
            ref other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(
            reports.iter().filter(|r| r.outcome.is_ok()).count(),
            3,
            "other jobs should finish"
        );
    }

    /// Batch cancellation: unstarted jobs report `Cancelled`, the call
    /// returns promptly (bounded by the worker poll interval — the
    /// "journal interval" of a supervised campaign), and in-flight
    /// non-cooperative jobs are abandoned.
    #[test]
    fn cancellation_latency_is_bounded() {
        let supervisor = Supervisor::new(4);
        let token = supervisor.cancel_token().clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let started = Instant::now();
        // 64 jobs of 10s each on 4 workers would run ~160s uncancelled.
        let reports = supervisor.map_supervised((0..64u32).collect(), |_, ctx| {
            let wake = Instant::now() + Duration::from_secs(10);
            while Instant::now() < wake && !ctx.token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let elapsed = started.elapsed();
        canceller.join().unwrap();
        // Generous wall-clock bound: cancel at 50ms + poll slack; CI
        // boxes are slow, so allow seconds, not the 160s of a runaway.
        assert!(elapsed < Duration::from_secs(10), "cancel took {elapsed:?}");
        let cancelled = reports
            .iter()
            .filter(|r| r.outcome.label() == "cancelled")
            .count();
        let ok = reports.iter().filter(|r| r.outcome.is_ok()).count();
        assert_eq!(cancelled + ok, 64);
        assert!(cancelled > 0, "most of the batch should be cancelled");
    }

    #[test]
    fn cooperative_jobs_see_their_token_and_finish_ok() {
        let supervisor = Supervisor::new(2);
        supervisor.cancel_token().cancel();
        // Already-cancelled batch: nothing runs.
        let reports = supervisor.map_supervised(vec![1u32, 2], |&x, _| x);
        assert!(reports
            .iter()
            .all(|r| matches!(r.outcome, JobOutcome::Cancelled)));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let supervisor = Supervisor::new(1).with_retries(3, Duration::from_millis(1));
        let reports =
            supervisor.map_supervised(vec![0u32], |_, _| -> u32 { panic!("always fails") });
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(reports[0].outcome.label(), "panicked");
    }

    /// Nested pools: a supervised job may fan out across a scoped
    /// [`Pool`] of its own (the experiments binary does exactly this —
    /// each experiment's inner suite runs on a nested pool).
    #[test]
    fn supervised_jobs_can_nest_scoped_pools() {
        let reports = Supervisor::new(2).map_supervised(vec![4u64, 5, 6], |&n, _| {
            crate::with_default_jobs(2, || {
                Pool::new(crate::default_jobs())
                    .map((0..n).collect(), |x| x + 1)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        let sums: Vec<u64> = reports
            .into_iter()
            .map(|r| r.outcome.into_ok().unwrap())
            .collect();
        assert_eq!(sums, vec![10, 15, 21]);
    }

    /// A nested *supervised* batch inside a supervised job: panics in
    /// the inner batch stay quarantined there.
    #[test]
    fn supervised_batches_nest() {
        let reports = Supervisor::new(2).map_supervised(vec![0u32, 1], |&outer, _| {
            let inner = Supervisor::new(2).map_supervised(vec![0u32, 1, 2], move |&x, _| {
                if outer == 1 && x == 1 {
                    panic!("inner");
                }
                x
            });
            inner.iter().filter(|r| r.outcome.is_ok()).count()
        });
        assert_eq!(reports[0].outcome.ok(), Some(&3));
        assert_eq!(reports[1].outcome.ok(), Some(&2));
    }

    #[test]
    fn zero_worker_supervisor_rejected() {
        assert!(catch_unwind(|| Supervisor::new(0)).is_err());
        assert!(
            catch_unwind(|| Supervisor::new(1).with_retries(0, Duration::from_millis(1))).is_err()
        );
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(JobOutcome::Ok(1u8).label(), "ok");
        assert_eq!(
            JobOutcome::<u8>::Panicked {
                message: String::new()
            }
            .label(),
            "panicked"
        );
        assert_eq!(
            JobOutcome::<u8>::TimedOut {
                deadline: Duration::ZERO
            }
            .label(),
            "timed-out"
        );
        assert_eq!(JobOutcome::<u8>::Cancelled.label(), "cancelled");
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let reports = Supervisor::new(8).map_supervised((0..32u64).collect(), |&x, _| {
            std::thread::sleep(Duration::from_millis(32 - x));
            x
        });
        let values: Vec<u64> = reports
            .into_iter()
            .map(|r| r.outcome.into_ok().unwrap())
            .collect();
        assert_eq!(values, (0..32).collect::<Vec<_>>());
    }
}
