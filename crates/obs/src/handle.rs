//! The zero-cost-when-disabled instrumentation handle.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{EventKind, Scope, TraceRecord};
use crate::metrics::{Metric, MetricsRegistry};
use crate::trace::TraceBuffer;

/// The mutable observability state one simulation writes into.
#[derive(Debug)]
struct Observer {
    trace: Option<TraceBuffer>,
    metrics_registry: Option<MetricsRegistry>,
}

/// The handle components hold to emit events and record metrics.
///
/// A handle is either **disabled** (the default: every call is one branch
/// on a `None`, no allocation) or **enabled**, in which case clones share
/// a single per-simulation `Observer` via `Rc<RefCell<_>>`. A simulation
/// builds its handle, runs and drops it on one thread, emitting in
/// simulation order, so the handle is deliberately neither `Send` nor
/// `Sync`: recording is a borrow-flag check, not a lock. What crosses
/// threads is the run's output — the collected [`TraceBuffer`] and
/// [`MetricsRegistry`] — and whole-run aggregation goes through
/// [`MetricsHub`](crate::MetricsHub) and [`EventHub`](crate::EventHub).
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Rc<RefCell<Observer>>>,
}

impl ObsHandle {
    /// The no-op handle: all emit/count/observe calls do nothing.
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// An enabled handle tracing into a ring of `trace_capacity` records
    /// (if `Some`) and/or recording metrics (if `metrics`). With neither
    /// requested this degenerates to [`ObsHandle::disabled`].
    pub fn enabled(trace_capacity: Option<usize>, metrics: bool) -> Self {
        if trace_capacity.is_none() && !metrics {
            return ObsHandle::disabled();
        }
        ObsHandle {
            inner: Some(Rc::new(RefCell::new(Observer {
                trace: trace_capacity.map(TraceBuffer::new),
                metrics_registry: metrics.then(MetricsRegistry::new),
            }))),
        }
    }

    /// Appends an event to the trace, if tracing is enabled.
    ///
    /// When disabled this compiles to a single never-taken test on the
    /// `Option`'s pointer; the push machinery lives in an out-of-line
    /// `#[cold]` body so it never pollutes the simulator's hot-loop
    /// instruction stream.
    #[inline]
    pub fn emit(&self, at: u64, scope: Scope, kind: EventKind) {
        if let Some(inner) = &self.inner {
            Self::emit_slow(inner, at, scope, kind);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(inner: &RefCell<Observer>, at: u64, scope: Scope, kind: EventKind) {
        if let Some(trace) = &mut inner.borrow_mut().trace {
            trace.push(TraceRecord { at, scope, kind });
        }
    }

    /// Adds `n` to `metric`'s counter, if metrics are enabled.
    #[inline]
    pub fn count(&self, metric: Metric, n: u64) {
        if let Some(inner) = &self.inner {
            Self::count_slow(inner, metric, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn count_slow(inner: &RefCell<Observer>, metric: Metric, n: u64) {
        if let Some(metrics) = &mut inner.borrow_mut().metrics_registry {
            metrics.count(metric, n);
        }
    }

    /// Records a sample of `metric`'s histogram, if metrics are enabled.
    #[inline]
    pub fn observe(&self, metric: Metric, value: u64) {
        if let Some(inner) = &self.inner {
            Self::observe_slow(inner, metric, value);
        }
    }

    #[cold]
    #[inline(never)]
    fn observe_slow(inner: &RefCell<Observer>, metric: Metric, value: u64) {
        if let Some(metrics) = &mut inner.borrow_mut().metrics_registry {
            metrics.observe(metric, value);
        }
    }

    /// Copies out the accumulated trace and metrics (either is `None`
    /// when that sink was not enabled). Callable while clones of the
    /// handle are still live in the simulated components.
    pub fn collect(&self) -> (Option<TraceBuffer>, Option<MetricsRegistry>) {
        match &self.inner {
            None => (None, None),
            Some(inner) => {
                let observer = inner.borrow();
                (observer.trace.clone(), observer.metrics_registry.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        obs.count(Metric::CoreStalls, 1);
        obs.observe(Metric::StallLength, 1);
        assert_eq!(obs.collect(), (None, None));
        // Requesting nothing is the same as disabling.
        assert!(ObsHandle::enabled(None, false).inner.is_none());
    }

    #[test]
    fn clones_share_one_observer() {
        let obs = ObsHandle::enabled(Some(16), true);
        let clone = obs.clone();
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        clone.emit(2, Scope::Core(0), EventKind::StallEnd);
        clone.count(Metric::CoreStalls, 1);
        obs.count(Metric::CoreStalls, 2);
        obs.observe(Metric::StallLength, 9);
        let (trace, metrics) = obs.collect();
        let trace = trace.unwrap();
        let metrics = metrics.unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(metrics.counter("core_stalls"), 3);
        assert_eq!(metrics.histogram("stall_length").unwrap().count(), 1);
        // Collect is a copy, not a drain.
        assert_eq!(obs.collect().0.unwrap().len(), 2);
    }

    #[test]
    fn trace_only_and_metrics_only_modes() {
        let trace_only = ObsHandle::enabled(Some(4), false);
        trace_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        trace_only.count(Metric::SafeModeTrips, 1);
        let (trace, metrics) = trace_only.collect();
        assert_eq!(trace.unwrap().len(), 1);
        assert!(metrics.is_none());

        let metrics_only = ObsHandle::enabled(None, true);
        metrics_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        metrics_only.count(Metric::SafeModeTrips, 1);
        let (trace, metrics) = metrics_only.collect();
        assert!(trace.is_none());
        assert_eq!(metrics.unwrap().counter("safe_mode_trips"), 1);
    }
}
