//! Counters, power-of-two-bucket histograms, and the merge hub.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json::{self, JsonValue};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`, up to the full `u64` range.
const BUCKETS: usize = 65;

/// A power-of-two-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one. Commutative and associative.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// The scalar summary used in manifests.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
        }
    }

    /// Non-empty buckets as `(lower bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower_bound(i), n))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Scalar summary of a histogram (for manifests and quick assertions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
}

fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// The closed vocabulary of metric names, one variant per metric that
/// any component records.
///
/// Variants are declared in ascending [`name`](Metric::name) order, so
/// iterating [`Metric::ALL`] visits metrics in the same sorted order the
/// JSON rendering (and so the regression goldens) uses. A registry indexes
/// its storage by variant, so recording a metric is one array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Counter: gates (re-gated naps included) that slept less than
    /// break-even.
    BetMisses,
    /// Histogram: cycles a break-even miss fell short by.
    BetShortfall,
    /// Counter: long-latency memory stalls the cores took.
    CoreStalls,
    /// Counter: gate decisions the watchdog demoted to no-gating.
    DemotedGates,
    /// Counter: DRAM accesses served.
    DramAccesses,
    /// Counter: DRAM accesses served with an injected latency spike.
    DramFaultSpikes,
    /// Counter: active dynamic energy, whole nanojoules.
    EnergyNjActiveDynamic,
    /// Counter: active leakage energy, whole nanojoules.
    EnergyNjActiveLeakage,
    /// Counter: DRAM access energy, whole nanojoules.
    EnergyNjDramAccess,
    /// Counter: DRAM background (standby and refresh) energy, whole
    /// nanojoules.
    EnergyNjDramBackground,
    /// Counter: residual leakage while power-gated, whole nanojoules.
    EnergyNjGatedResidual,
    /// Counter: core energy while stalled but not gated, whole nanojoules.
    EnergyNjIdleStall,
    /// Counter: sleep/wake transition energy, whole nanojoules.
    EnergyNjTransition,
    /// Counter: cycles the power-gating FSMs spent active.
    FsmActiveCycles,
    /// Counter: cycles the power-gating FSMs spent entering sleep.
    FsmEnteringCycles,
    /// Counter: cycles the power-gating FSMs spent asleep.
    FsmSleepingCycles,
    /// Counter: cycles the power-gating FSMs spent waking.
    FsmWakingCycles,
    /// Histogram: cycles each gate (or re-gated nap) slept.
    GatedDuration,
    /// Counter: stalls the controller gated.
    Gates,
    /// Counter: accesses that missed the last-level cache.
    LlcMisses,
    /// Histogram: cycles from LLC miss issue to completion.
    MissLatency,
    /// Counter: naps re-gated after an early wake.
    Regates,
    /// Counter: watchdog re-arms out of safe mode.
    SafeModeRecoveries,
    /// Counter: watchdog trips into safe mode.
    SafeModeTrips,
    /// Histogram: natural length of each memory stall, in cycles.
    StallLength,
    /// Counter: wake tokens granted.
    TokenGrants,
    /// Histogram: cycles each wake waited for its token.
    TokenWait,
    /// Histogram: cycles each wake ramp took.
    WakeLatency,
}

impl Metric {
    /// Number of metrics in the vocabulary.
    pub const COUNT: usize = 28;

    /// Every metric, in ascending name order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::BetMisses,
        Metric::BetShortfall,
        Metric::CoreStalls,
        Metric::DemotedGates,
        Metric::DramAccesses,
        Metric::DramFaultSpikes,
        Metric::EnergyNjActiveDynamic,
        Metric::EnergyNjActiveLeakage,
        Metric::EnergyNjDramAccess,
        Metric::EnergyNjDramBackground,
        Metric::EnergyNjGatedResidual,
        Metric::EnergyNjIdleStall,
        Metric::EnergyNjTransition,
        Metric::FsmActiveCycles,
        Metric::FsmEnteringCycles,
        Metric::FsmSleepingCycles,
        Metric::FsmWakingCycles,
        Metric::GatedDuration,
        Metric::Gates,
        Metric::LlcMisses,
        Metric::MissLatency,
        Metric::Regates,
        Metric::SafeModeRecoveries,
        Metric::SafeModeTrips,
        Metric::StallLength,
        Metric::TokenGrants,
        Metric::TokenWait,
        Metric::WakeLatency,
    ];

    /// Stable snake-case name, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Metric::BetMisses => "bet_misses",
            Metric::BetShortfall => "bet_shortfall",
            Metric::CoreStalls => "core_stalls",
            Metric::DemotedGates => "demoted_gates",
            Metric::DramAccesses => "dram_accesses",
            Metric::DramFaultSpikes => "dram_fault_spikes",
            Metric::EnergyNjActiveDynamic => "energy_nj_active_dynamic",
            Metric::EnergyNjActiveLeakage => "energy_nj_active_leakage",
            Metric::EnergyNjDramAccess => "energy_nj_dram_access",
            Metric::EnergyNjDramBackground => "energy_nj_dram_background",
            Metric::EnergyNjGatedResidual => "energy_nj_gated_residual",
            Metric::EnergyNjIdleStall => "energy_nj_idle_stall",
            Metric::EnergyNjTransition => "energy_nj_transition",
            Metric::FsmActiveCycles => "fsm_active_cycles",
            Metric::FsmEnteringCycles => "fsm_entering_cycles",
            Metric::FsmSleepingCycles => "fsm_sleeping_cycles",
            Metric::FsmWakingCycles => "fsm_waking_cycles",
            Metric::GatedDuration => "gated_duration",
            Metric::Gates => "gates",
            Metric::LlcMisses => "llc_misses",
            Metric::MissLatency => "miss_latency",
            Metric::Regates => "regates",
            Metric::SafeModeRecoveries => "safe_mode_recoveries",
            Metric::SafeModeTrips => "safe_mode_trips",
            Metric::StallLength => "stall_length",
            Metric::TokenGrants => "token_grants",
            Metric::TokenWait => "token_wait",
            Metric::WakeLatency => "wake_latency",
        }
    }

    /// The metric called `name`, if the vocabulary has one.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|metric| metric.name() == name)
    }
}

/// A registry of counters and histograms, one slot of each per
/// [`Metric`].
///
/// A slot is `None` until its metric is first recorded, so the JSON
/// rendering lists exactly the metrics a run touched (a counter bumped by
/// zero still appears). The slot arrays live behind one `Box` and each
/// histogram behind its own, so a registry — and every `RunReport` that
/// may carry one — stays pointer-sized, and no allocation it makes is
/// larger than a histogram.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    slots: Box<Slots>,
}

#[derive(Clone, PartialEq, Eq)]
struct Slots {
    counters: [Option<u64>; Metric::COUNT],
    histograms: [Option<Box<Histogram>>; Metric::COUNT],
}

impl Default for Slots {
    fn default() -> Self {
        Slots {
            counters: [None; Metric::COUNT],
            histograms: [const { None }; Metric::COUNT],
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to `metric`'s counter.
    pub fn count(&mut self, metric: Metric, n: u64) {
        *self.slots.counters[metric as usize].get_or_insert(0) += n;
    }

    /// Records one sample into `metric`'s histogram.
    pub fn observe(&mut self, metric: Metric, value: u64) {
        self.slots.histograms[metric as usize]
            .get_or_insert_with(Box::default)
            .record(value);
    }

    /// Current value of the counter called `name` (0 when never
    /// incremented or not a metric name).
    pub fn counter(&self, name: &str) -> u64 {
        Metric::from_name(name)
            .and_then(|metric| self.slots.counters[metric as usize])
            .unwrap_or(0)
    }

    /// The histogram called `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        Metric::from_name(name).and_then(|metric| self.slots.histograms[metric as usize].as_deref())
    }

    /// All recorded counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Metric::ALL
            .into_iter()
            .zip(&self.slots.counters)
            .filter_map(|(metric, value)| value.map(|value| (metric.name(), value)))
    }

    /// All recorded histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        Metric::ALL
            .into_iter()
            .zip(&self.slots.histograms)
            .filter_map(|(metric, hist)| hist.as_deref().map(|hist| (metric.name(), hist)))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none() && self.histograms().next().is_none()
    }

    /// Folds another registry into this one. Commutative and associative,
    /// so parallel aggregation is order-independent.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        let slots = &mut *self.slots;
        for (mine, theirs) in slots.counters.iter_mut().zip(&other.slots.counters) {
            if let Some(value) = theirs {
                *mine.get_or_insert(0) += value;
            }
        }
        for (mine, theirs) in slots.histograms.iter_mut().zip(&other.slots.histograms) {
            if let Some(hist) = theirs {
                mine.get_or_insert_with(Box::default).merge(hist);
            }
        }
    }

    /// The registry as a JSON tree: a `counters` object and a
    /// `histograms` object (count, sum, min, max, mean and the non-empty
    /// buckets keyed by lower bound), both sorted by name.
    pub fn to_json_value(&self) -> JsonValue {
        let counters = self.counters().map(|(name, value)| (name, value.into()));
        let histograms = self.histograms().map(|(name, hist)| {
            let buckets = hist
                .nonzero_buckets()
                .into_iter()
                .map(|(lo, n)| (lo.to_string(), n.into()));
            let summary = JsonValue::object([
                ("count", hist.count().into()),
                ("sum", hist.sum().into()),
                ("min", hist.min().into()),
                ("max", hist.max().into()),
                ("mean", json::fixed(hist.mean(), 3)),
                ("buckets", JsonValue::object(buckets)),
            ]);
            (name, summary)
        });
        JsonValue::object([
            ("counters", JsonValue::object(counters)),
            ("histograms", JsonValue::object(histograms)),
        ])
    }

    /// Renders the registry as deterministic, pretty-printed JSON
    /// (sorted names, stable number formats, trailing newline).
    pub fn to_json(&self) -> String {
        json::write_pretty(&self.to_json_value())
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The same text the string-keyed maps printed.
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters().collect::<BTreeMap<_, _>>())
            .field("histograms", &self.histograms().collect::<BTreeMap<_, _>>())
            .finish()
    }
}

/// A thread-safe accumulator many simulations merge their registries
/// into; cloning shares the underlying storage.
///
/// Because [`MetricsRegistry::merge`] is commutative and associative, the
/// final snapshot does not depend on merge order — parallel harness runs
/// aggregate deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Folds a registry into the hub.
    pub fn merge(&self, registry: &MetricsRegistry) {
        self.inner
            .lock()
            .expect("metrics hub poisoned")
            .merge(registry);
    }

    /// A copy of everything merged so far.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.inner.lock().expect("metrics hub poisoned").clone()
    }
}

thread_local! {
    static AMBIENT_HUB: RefCell<Option<MetricsHub>> = const { RefCell::new(None) };
}

/// The innermost active [`with_ambient_hub`] hub on this thread, if any.
///
/// Harness code that builds simulation configs deep inside a call tree
/// (e.g. the experiment registry) uses this to pick up the hub the
/// `experiments --metrics` driver installed, without threading a parameter
/// through every experiment signature.
pub fn ambient_hub() -> Option<MetricsHub> {
    AMBIENT_HUB.with(|cell| cell.borrow().clone())
}

/// Runs `f` with [`ambient_hub`] resolving to `hub` on the current thread,
/// restoring the previous value afterwards (also on panic).
pub fn with_ambient_hub<R>(hub: MetricsHub, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<MetricsHub>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_HUB.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_HUB.with(|cell| cell.borrow_mut().replace(hub)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(3), 4);
    }

    #[test]
    fn histogram_tracks_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [0, 1, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (4, 1), (8, 1)]);
    }

    #[test]
    fn vocabulary_is_sorted_and_indexed_by_variant() {
        for (index, metric) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(metric as usize, index, "{metric:?} is out of place");
            assert_eq!(Metric::from_name(metric.name()), Some(metric));
        }
        for pair in Metric::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?} out of order");
        }
        assert_eq!(Metric::from_name("absent"), None);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.count(Metric::Gates, 2);
        a.observe(Metric::StallLength, 5);
        let mut b = MetricsRegistry::new();
        b.count(Metric::Gates, 3);
        b.count(Metric::Regates, 1);
        b.observe(Metric::StallLength, 50);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("gates"), 5);
        assert_eq!(ab.counter("regates"), 1);
        assert_eq!(ab.counter("bet_misses"), 0);
        assert_eq!(ab.counter("absent"), 0);
        assert_eq!(ab.histogram("stall_length").unwrap().count(), 2);
        assert!(ab.histogram("absent").is_none());
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.count(Metric::TokenGrants, 1);
        r.count(Metric::BetMisses, 2);
        r.count(Metric::Gates, 0);
        r.observe(Metric::WakeLatency, 3);
        let text = r.to_json();
        assert_eq!(text, r.to_json());
        assert!(text.ends_with("}\n"));
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc, r.to_json_value());
        let JsonValue::Object(counters) = doc.get("counters").unwrap() else {
            panic!("counters is not an object: {text}");
        };
        let names: Vec<&str> = counters.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["bet_misses", "gates", "token_grants"],
            "counters must render sorted, zero-bumped ones included"
        );
        assert_eq!(counters[0].1.as_u64(), Some(2));
        let lat = doc.get("histograms").unwrap().get("wake_latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(lat.get("sum").unwrap().as_u64(), Some(3));
        let empty = json::parse(&MetricsRegistry::new().to_json()).unwrap();
        assert_eq!(empty.get("counters"), Some(&JsonValue::Object(Vec::new())));
    }

    #[test]
    fn hub_accumulates_across_clones() {
        let hub = MetricsHub::new();
        let clone = hub.clone();
        let mut r = MetricsRegistry::new();
        r.count(Metric::Gates, 1);
        hub.merge(&r);
        clone.merge(&r);
        assert_eq!(hub.snapshot().counter("gates"), 2);
    }

    #[test]
    fn ambient_hub_overrides_and_restores() {
        assert!(ambient_hub().is_none());
        let hub = MetricsHub::new();
        with_ambient_hub(hub.clone(), || {
            let seen = ambient_hub().expect("ambient hub visible inside scope");
            let mut r = MetricsRegistry::new();
            r.count(Metric::Gates, 1);
            seen.merge(&r);
        });
        assert!(ambient_hub().is_none());
        assert_eq!(hub.snapshot().counter("gates"), 1);
    }

    #[test]
    fn ambient_hub_is_thread_local() {
        with_ambient_hub(MetricsHub::new(), || {
            let inner = std::thread::scope(|s| s.spawn(|| ambient_hub().is_none()).join().unwrap());
            assert!(inner, "fresh thread must not inherit the ambient hub");
        });
    }
}
