//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts over minutes
//! as other tenants load the CPUs, caches and memory. On the 2-CPU host it
//! was defined on, the serial suite's median over ten runs was 17.4 s in
//! one set and 9.2 s in the next, a few minutes later: no bound a
//! regression check can use survives that. Every end-to-end run therefore
//! also samples a fixed calibration simulation before each timed call and
//! after the last, and rescales its times to a fixed host speed:
//! `calibrated = raw × REFERENCE_S / median(calibration samples)`.
//! Sampled between the suite's experiments over five minutes there, the
//! calibration's time tracked the suite's with a correlation of 0.92.
//!
//! The calibration is the frozen reference stack (`ReferenceCluster` with
//! its reference hierarchy, kept verbatim as the simulator's oracle) over
//! fixed recorded traces, fed by a replay source of this file's own, so a
//! change to the live simulator does not change it. Its makespan is
//! checked against the recorded one, so it stays the same work.

use std::hint::black_box;
use std::time::Instant;

use mapg_cpu::{CoreConfig, PassiveHandler, ReferenceCluster};
use mapg_mem::HierarchyConfig;
use mapg_trace::{EventSource, RecordedTrace, SyntheticWorkload, TraceEvent, WorkloadProfile};

use crate::measure::median;

/// The calibration's time in a slow period of the 2-CPU host the benchmark
/// was defined on (it measured 8–15 ms there), so calibrated seconds read
/// close to wall seconds in such a period.
pub const REFERENCE_S: f64 = 0.015;

/// Instructions per calibration core.
const INSTRUCTIONS: u64 = 150_000;

/// Replays recorded events in a loop, like `mapg_trace::Replay`, but owned
/// by the benchmark so the calibration never times code a change may touch.
struct Looping<'a> {
    events: &'a [TraceEvent],
    next: usize,
}

impl EventSource for Looping<'_> {
    fn next_event(&mut self) -> TraceEvent {
        let event = self.events[self.next];
        self.next = (self.next + 1) % self.events.len();
        event
    }

    fn name(&self) -> &str {
        "calibration"
    }
}

pub struct Calibration {
    traces: Vec<Vec<TraceEvent>>,
    times: Vec<f64>,
    makespans: Vec<u64>,
}

impl Calibration {
    /// Records the calibration traces: two memory-bound cores, one
    /// compute-bound and one mixed, with fixed seeds.
    pub fn new() -> Self {
        let profiles = [
            WorkloadProfile::mem_bound("calibration_mem"),
            WorkloadProfile::mem_bound("calibration_mem"),
            WorkloadProfile::compute_bound("calibration_cpu"),
            WorkloadProfile::mixed("calibration_mixed"),
        ];
        let traces = profiles
            .iter()
            .enumerate()
            .map(|(core, profile)| {
                let mut workload = SyntheticWorkload::new(profile, 9_001 + core as u64);
                RecordedTrace::record(&mut workload, INSTRUCTIONS)
                    .events()
                    .to_vec()
            })
            .collect();
        Calibration {
            traces,
            times: Vec::new(),
            makespans: Vec::new(),
        }
    }

    /// Runs the calibration simulation three times and keeps the median
    /// wall seconds: single runs catch outliers of twice the typical time.
    pub fn sample(&mut self) {
        let mut runs = [0.0; 3];
        for run in &mut runs {
            *run = self.run_once();
        }
        self.times.push(median(&runs));
    }

    fn run_once(&mut self) -> f64 {
        let started = Instant::now();
        let sources = self
            .traces
            .iter()
            .map(|events| Looping { events, next: 0 })
            .collect();
        let mut cluster =
            ReferenceCluster::new(CoreConfig::baseline(), HierarchyConfig::baseline(), sources);
        cluster.run(INSTRUCTIONS, &mut PassiveHandler);
        let makespan = black_box(cluster.stats()).makespan_cycles();
        self.makespans.push(makespan);
        started.elapsed().as_secs_f64()
    }

    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The last run's simulated makespan.
    pub fn makespan(&self) -> u64 {
        *self.makespans.last().expect("a calibration run")
    }

    /// The factor that rescales this run's times to the reference speed:
    /// from the median of all the run's samples, which a few slow samples
    /// do not move.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / median(&self.times)
    }

    /// Checks that every run simulated the recorded makespan.
    pub fn check(&self, expected: Option<u64>) -> Result<(), String> {
        match self.makespans.iter().find(|&&m| Some(m) != expected) {
            Some(makespan) => Err(format!(
                "calibration makespan {makespan} differs from the recorded {expected:?}"
            )),
            None => Ok(()),
        }
    }
}
