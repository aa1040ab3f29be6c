//! The zero-cost-when-disabled instrumentation handle.

use std::sync::{Arc, Mutex};

use crate::event::{EventKind, Scope, TraceRecord};
use crate::metrics::MetricsRegistry;
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
/// on a `None`, no allocation, no locking) or **enabled**, in which case
/// clones share a single per-simulation `Observer` via `Arc<Mutex<_>>`.
/// A simulation emits single-threaded — in simulation order — so the lock
/// is uncontended; `Arc<Mutex<_>>` rather than `Rc<RefCell<_>>` keeps the
/// handle `Send + Sync`, so a simulation and its components can run on
/// any pool worker. Cross-thread metric aggregation across whole runs
/// goes through [`MetricsHub`](crate::MetricsHub).
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Mutex<Observer>>>,
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
            inner: Some(Arc::new(Mutex::new(Observer {
                trace: trace_capacity.map(TraceBuffer::new),
                metrics_registry: metrics.then(MetricsRegistry::new),
            }))),
        }
    }

    /// True when any sink (trace or metrics) is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when a trace sink is attached.
    pub fn trace_enabled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner
                .lock()
                .expect("observer lock poisoned")
                .trace
                .is_some(),
        }
    }

    /// Appends an event to the trace, if tracing is enabled.
    ///
    /// When disabled this compiles to a single never-taken test on the
    /// `Option`'s pointer; the lock/push machinery lives in an
    /// out-of-line `#[cold]` body so it never pollutes the simulator's
    /// hot-loop instruction stream.
    #[inline]
    pub fn emit(&self, at: u64, scope: Scope, kind: EventKind) {
        if let Some(inner) = &self.inner {
            Self::emit_slow(inner, at, scope, kind);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(inner: &Arc<Mutex<Observer>>, at: u64, scope: Scope, kind: EventKind) {
        if let Some(trace) = &mut inner.lock().expect("observer lock poisoned").trace {
            trace.push(TraceRecord { at, scope, kind });
        }
    }

    /// Adds `n` to a named counter, if metrics are enabled.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            Self::count_slow(inner, name, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn count_slow(inner: &Arc<Mutex<Observer>>, name: &'static str, n: u64) {
        if let Some(metrics) = &mut inner
            .lock()
            .expect("observer lock poisoned")
            .metrics_registry
        {
            metrics.count(name, n);
        }
    }

    /// Records a histogram sample, if metrics are enabled.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            Self::observe_slow(inner, name, value);
        }
    }

    #[cold]
    #[inline(never)]
    fn observe_slow(inner: &Arc<Mutex<Observer>>, name: &'static str, value: u64) {
        if let Some(metrics) = &mut inner
            .lock()
            .expect("observer lock poisoned")
            .metrics_registry
        {
            metrics.observe(name, value);
        }
    }

    /// Copies out the accumulated trace and metrics (either is `None`
    /// when that sink was not enabled). Callable while clones of the
    /// handle are still live in the simulated components.
    pub fn collect(&self) -> (Option<TraceBuffer>, Option<MetricsRegistry>) {
        match &self.inner {
            None => (None, None),
            Some(inner) => {
                let observer = inner.lock().expect("observer lock poisoned");
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
        assert!(!obs.is_enabled());
        assert!(!obs.trace_enabled());
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        obs.count("x", 1);
        obs.observe("h", 1);
        assert_eq!(obs.collect(), (None, None));
        // Requesting nothing is the same as disabling.
        assert!(!ObsHandle::enabled(None, false).is_enabled());
    }

    #[test]
    fn clones_share_one_observer() {
        let obs = ObsHandle::enabled(Some(16), true);
        let clone = obs.clone();
        obs.emit(1, Scope::Core(0), EventKind::StallBegin);
        clone.emit(2, Scope::Core(0), EventKind::StallEnd);
        clone.count("stalls", 1);
        obs.count("stalls", 2);
        obs.observe("len", 9);
        let (trace, metrics) = obs.collect();
        let trace = trace.unwrap();
        let metrics = metrics.unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(metrics.counter("stalls"), 3);
        assert_eq!(metrics.histogram("len").unwrap().count(), 1);
        // Collect is a copy, not a drain.
        assert_eq!(obs.collect().0.unwrap().len(), 2);
    }

    #[test]
    fn trace_only_and_metrics_only_modes() {
        let trace_only = ObsHandle::enabled(Some(4), false);
        trace_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        trace_only.count("ignored", 1);
        assert!(trace_only.trace_enabled());
        let (trace, metrics) = trace_only.collect();
        assert_eq!(trace.unwrap().len(), 1);
        assert!(metrics.is_none());

        let metrics_only = ObsHandle::enabled(None, true);
        metrics_only.emit(1, Scope::Global, EventKind::SafeModeEnter);
        metrics_only.count("seen", 1);
        assert!(!metrics_only.trace_enabled());
        let (trace, metrics) = metrics_only.collect();
        assert!(trace.is_none());
        assert_eq!(metrics.unwrap().counter("seen"), 1);
    }

    #[test]
    fn enabled_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let obs = ObsHandle::enabled(Some(4), true);
        assert_send_sync(&obs);
    }
}
