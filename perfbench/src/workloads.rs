//! The workloads: what each one runs, how it is set up, and how its
//! outputs are checked against the recorded digests.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mapg::{PolicyKind, RunReport, SimConfig, Simulation};
use mapg_bench::experiments::{self, Experiment};
use mapg_bench::{fnv1a64, render_tables, OutputFormat, Scale};
use mapg_trace::{WorkloadProfile, WorkloadSuite};

use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 20 registry experiments at paper scale, one after another.
    PaperSuite,
    /// The same suite fanned out over `mapg_pool::default_jobs()` pool jobs.
    PaperSuitePar,
    /// One stall-dense 4-core simulation with trace and metrics on.
    MemboundObserved,
    /// One 32-core simulation of compute-tier profiles, observability off.
    ComputeboundManycore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::PaperSuitePar,
        Workload::MemboundObserved,
        Workload::ComputeboundManycore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::PaperSuitePar => "paper-suite-par",
            Workload::MemboundObserved => "membound-observed",
            Workload::ComputeboundManycore => "computebound-manycore",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_suite(self) -> bool {
        matches!(self, Workload::PaperSuite | Workload::PaperSuitePar)
    }
}

/// How big every workload runs: `Paper` is the benchmark, `Smoke` the
/// benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Paper => "paper",
            Size::Smoke => "smoke",
        }
    }

    pub fn parse(name: &str) -> Option<Size> {
        [Size::Paper, Size::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Size::Paper => Scale::Paper,
            Size::Smoke => Scale::Smoke,
        }
    }

    /// Per-core instructions of the two simulation workloads, sized so one
    /// simulation takes seconds (paper) or milliseconds (smoke).
    fn sim_instructions(self) -> u64 {
        match self {
            Size::Paper => 5_000_000,
            Size::Smoke => 40_000,
        }
    }
}

/// Recorded inputs per simulation workload. `--seed` picks input
/// `seed % INPUTS`, so every run's output has a recorded digest to match.
pub const INPUTS: u64 = 16;

/// The simulation seed of recorded input `index`. Cores use consecutive
/// seeds from it, so the stride keeps the inputs' streams disjoint.
fn input_seed(index: u64) -> u64 {
    1 + index * 1024
}

/// The registry's default simulation seed, used for the decomposed suite
/// simulations.
const REGISTRY_SEED: u64 = 42;

/// One `Mapg` simulation as the harness builds it: enough to construct the
/// `SimConfig` and, for the traced decomposition, the same controller.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub label: String,
    pub profiles: Vec<WorkloadProfile>,
    pub cores: usize,
    pub instructions: u64,
    pub seed: u64,
    pub tokens: Option<usize>,
}

impl SimSpec {
    pub fn config(&self) -> SimConfig {
        let config = SimConfig::default()
            .with_workload_mix(self.profiles.clone())
            .with_cores(self.cores)
            .with_instructions(self.instructions)
            .with_seed(self.seed);
        match self.tokens {
            Some(tokens) => config.with_tokens(tokens),
            None => config,
        }
    }

    /// The profile core `core` runs.
    pub fn profile_of(&self, core: usize) -> &WorkloadProfile {
        &self.profiles[core % self.profiles.len()]
    }

    /// Recorded input `input` of a simulation workload.
    fn of(workload: Workload, size: Size, input: u64) -> SimSpec {
        match workload {
            Workload::MemboundObserved => SimSpec::membound(size, input),
            Workload::ComputeboundManycore => SimSpec::manycore(size, input),
            Workload::PaperSuite | Workload::PaperSuitePar => {
                unreachable!("the suite workloads run no single simulation")
            }
        }
    }

    fn membound(size: Size, input: u64) -> SimSpec {
        SimSpec {
            label: "membound".to_owned(),
            profiles: vec![WorkloadProfile::mem_bound("mem_bound")],
            cores: 4,
            instructions: size.sim_instructions(),
            seed: input_seed(input),
            tokens: Some(2),
        }
    }

    fn manycore(size: Size, input: u64) -> SimSpec {
        let suite = WorkloadSuite::spec_like();
        let profiles = ["namd_like", "h264ref_like", "perlbench_like"]
            .iter()
            .map(|name| suite.get(name).expect("compute-tier profile").clone())
            .collect();
        SimSpec {
            label: "manycore".to_owned(),
            profiles,
            cores: 32,
            instructions: size.sim_instructions(),
            seed: input_seed(input),
            tokens: None,
        }
    }

    /// One single-core `Mapg` simulation per profile of the suite the
    /// registry uses at `size`, at the registry's instruction budget.
    fn suite_profiles(size: Size) -> Vec<SimSpec> {
        let suite = match size {
            Size::Paper => WorkloadSuite::spec_like(),
            Size::Smoke => WorkloadSuite::extremes(),
        };
        suite
            .profiles()
            .iter()
            .map(|profile| SimSpec {
                label: profile.name().to_owned(),
                profiles: vec![profile.clone()],
                cores: 1,
                instructions: size.scale().instructions(),
                seed: REGISTRY_SEED,
                tokens: None,
            })
            .collect()
    }
}

/// The recorded expected outputs: `<size> <group> <key> <value>` lines,
/// `#` comments. Groups are `suite` (one digest per experiment plus the
/// suite's simulated core-cycles), `calibration` (the calibration
/// simulation's makespan) and each simulation workload's name (one digest
/// per input).
#[derive(Debug, Default)]
pub struct Expected {
    values: BTreeMap<String, String>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut values = BTreeMap::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [size, group, key, value] = fields[..] else {
                return Err(format!("line {}: expected 4 fields: {line}", number + 1));
            };
            values.insert(format!("{size} {group} {key}"), value.to_owned());
        }
        Ok(Expected { values })
    }

    pub fn get(&self, size: Size, group: &str, key: &str) -> Option<u64> {
        let value = self.values.get(&format!("{} {group} {key}", size.name()))?;
        match value.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => value.parse().ok(),
        }
    }
}

/// Renders one expected-output line.
pub fn expected_line(size: Size, group: &str, key: &str, value: String) -> String {
    format!("{} {group} {key} {value}\n", size.name())
}

pub fn hex(digest: u64) -> String {
    format!("0x{digest:016x}")
}

/// What a batch of operations (experiments or simulations) did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Simulated core-cycles, summed over all cores and simulations.
    pub sim_cycles: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            self.problems.push(format!("{what}: {problem}"));
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sim_cycles += other.sim_cycles;
        self.problems.extend(other.problems);
    }
}

fn matches(actual: u64, expected: Option<u64>) -> Result<(), String> {
    match expected {
        Some(expected) if expected == actual => Ok(()),
        Some(expected) => Err(format!(
            "digest {} does not match the recorded {}",
            hex(actual),
            hex(expected)
        )),
        None => Err(format!("no recorded digest (got {})", hex(actual))),
    }
}

/// A workload ready to run: everything built before the first timed call.
pub struct Prepared {
    pub workload: Workload,
    size: Size,
    plan: Plan,
}

enum Plan {
    Suite {
        experiments: Vec<Experiment>,
        jobs: usize,
        digests: Vec<Option<u64>>,
        core_cycles: Option<u64>,
    },
    /// Every recorded input with its digest; iteration `i` of a run with
    /// seed `n` simulates input `(n + i) % INPUTS`, so no two consecutive
    /// iterations repeat one simulation (a cache across runs gains nothing
    /// a user running one simulation would see).
    Sim {
        inputs: Vec<(SimSpec, Option<u64>)>,
        first: usize,
        observed: bool,
    },
}

impl Prepared {
    pub fn new(workload: Workload, size: Size, seed: u64, expected: &Expected) -> Prepared {
        let plan = match workload {
            Workload::PaperSuite | Workload::PaperSuitePar => {
                let experiments = experiments::all();
                let digests = experiments
                    .iter()
                    .map(|e| expected.get(size, "suite", e.id))
                    .collect();
                Plan::Suite {
                    experiments,
                    jobs: if workload == Workload::PaperSuite {
                        1
                    } else {
                        mapg_pool::default_jobs().max(1)
                    },
                    digests,
                    core_cycles: expected.get(size, "suite", "core_cycles"),
                }
            }
            Workload::MemboundObserved | Workload::ComputeboundManycore => Plan::Sim {
                inputs: (0..INPUTS)
                    .map(|input| {
                        let spec = SimSpec::of(workload, size, input);
                        let digest = expected.get(size, workload.name(), &format!("input{input}"));
                        (spec, digest)
                    })
                    .collect(),
                first: (seed % INPUTS) as usize,
                observed: workload == Workload::MemboundObserved,
            },
        };
        Prepared {
            workload,
            size,
            plan,
        }
    }

    /// Pool jobs the workload runs with.
    pub fn jobs(&self) -> usize {
        match &self.plan {
            Plan::Suite { jobs, .. } => *jobs,
            Plan::Sim { .. } => 1,
        }
    }

    /// How many separately timed calls one iteration makes: one per
    /// experiment for the serial suite, so the host-speed calibration is
    /// sampled between experiments; otherwise one.
    pub fn parts(&self) -> usize {
        match &self.plan {
            Plan::Suite {
                experiments,
                jobs: 1,
                ..
            } => experiments.len(),
            Plan::Suite { .. } | Plan::Sim { .. } => 1,
        }
    }

    /// Runs iteration `iteration` of the workload's timed operation and
    /// checks its outputs. With `spans`, the suite records a span per
    /// experiment and render under the given parent.
    pub fn run(&self, iteration: usize, spans: Option<(&Spans, usize)>) -> Outcome {
        let mut outcome = Outcome::default();
        for part in 0..self.parts() {
            outcome.absorb(self.run_part(iteration, part, spans));
        }
        outcome
    }

    /// Runs part `part` (see [`Prepared::parts`]) of iteration `iteration`.
    pub fn run_part(
        &self,
        iteration: usize,
        part: usize,
        spans: Option<(&Spans, usize)>,
    ) -> Outcome {
        let mut outcome = Outcome::default();
        match &self.plan {
            Plan::Suite {
                experiments,
                jobs,
                digests,
                core_cycles,
            } => {
                let range = if self.parts() == 1 {
                    0..experiments.len()
                } else {
                    part..part + 1
                };
                let (experiments, digests) = (&experiments[range.clone()], &digests[range]);
                let results = run_suite(experiments, self.size.scale(), *jobs, spans);
                for ((experiment, result), expected) in experiments.iter().zip(results).zip(digests)
                {
                    outcome.check(experiment.id, result.and_then(|d| matches(d, *expected)));
                }
                // The recorded core-cycles cover the whole suite: count
                // them once per iteration.
                if part == 0 {
                    match core_cycles {
                        Some(cycles) => outcome.sim_cycles = *cycles,
                        None => outcome
                            .problems
                            .push("no recorded suite core_cycles".to_owned()),
                    }
                }
            }
            Plan::Sim {
                inputs,
                first,
                observed,
            } => {
                let (spec, digest) = &inputs[(first + iteration) % inputs.len()];
                let result = run_sim(spec, *observed);
                if let Ok(run) = &result {
                    outcome.sim_cycles = run.core_cycles;
                }
                outcome.check(&spec.label, result.and_then(|r| matches(r.digest, *digest)));
            }
        }
        outcome
    }

    /// The simulations the traced run decomposes into layers.
    pub fn decomposition(&self) -> Vec<SimSpec> {
        match &self.plan {
            Plan::Suite { .. } => SimSpec::suite_profiles(self.size),
            Plan::Sim { inputs, first, .. } => vec![inputs[*first].0.clone()],
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_owned()
    }
}

/// Runs `f`, inside a span named `name` when `spans` is given.
fn timed<R>(spans: Option<(&Spans, usize)>, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
    match spans {
        Some((spans, parent)) => spans.record(name, Some(parent), |_| f()),
        None => f(),
    }
}

/// Runs `experiments` at `scale` over a pool of `jobs` (each experiment's
/// inner fan-out also gets `jobs`, as `experiments --jobs` does) and
/// returns the digest of each one's rendered CSV, in registry order.
pub fn run_suite(
    experiments: &[Experiment],
    scale: Scale,
    jobs: usize,
    spans: Option<(&Spans, usize)>,
) -> Vec<Result<u64, String>> {
    mapg_pool::Pool::new(jobs).map(experiments.to_vec(), |experiment| {
        // An ambient hub would silently turn metrics on in every
        // simulation the experiment builds; no end-to-end run may have one.
        if mapg_obs::ambient_hub().is_some() || mapg_obs::ambient_event_hub().is_some() {
            return Err("an ambient metrics or event hub is installed".to_owned());
        }
        let tables = timed(spans, format!("bench.exp.{}", experiment.id), || {
            catch_unwind(AssertUnwindSafe(|| {
                mapg_pool::with_default_jobs(jobs, || (experiment.run)(scale))
            }))
        })
        .map_err(panic_message)?;
        let rendered = timed(spans, "bench.render", || {
            render_tables(&tables, OutputFormat::Csv)
        });
        Ok(fnv1a64(rendered.as_bytes()))
    })
}

/// Simulated core-cycles of the whole suite at `scale`, counted through a
/// metrics hub (the FSM residency counters cover every cycle of every
/// core). Only the recorder calls this: the hub slows every simulation.
pub fn suite_core_cycles(experiments: &[Experiment], scale: Scale) -> u64 {
    let hub = mapg_obs::MetricsHub::new();
    for experiment in experiments {
        mapg_obs::with_ambient_hub(hub.clone(), || {
            mapg_pool::with_default_jobs(1, || (experiment.run)(scale))
        });
    }
    fsm_cycles(&hub.snapshot())
}

pub fn fsm_cycles(metrics: &mapg_obs::MetricsRegistry) -> u64 {
    [
        "fsm_active_cycles",
        "fsm_entering_cycles",
        "fsm_sleeping_cycles",
        "fsm_waking_cycles",
    ]
    .iter()
    .map(|name| metrics.counter(name))
    .sum()
}

pub struct SimRun {
    pub digest: u64,
    pub core_cycles: u64,
}

/// The digest of a report's simulated results. The trace and metrics side
/// channels are not part of it and must already be taken out.
fn report_digest(report: &RunReport) -> u64 {
    debug_assert!(report.trace.is_none() && report.metrics.is_none());
    fnv1a64(format!("{report:?}").as_bytes())
}

/// Runs one `Mapg` simulation of `spec`. An observed run also exports its
/// trace as Chrome JSON and its metrics as JSON, as `mapgsim --trace
/// --metrics` does (into memory, not to disk).
pub fn run_sim(spec: &SimSpec, observed: bool) -> Result<SimRun, String> {
    let mut config = spec.config();
    if observed {
        config = config.with_trace().with_metrics();
    }
    let mut report = catch_unwind(AssertUnwindSafe(|| {
        Simulation::new(config, PolicyKind::Mapg).try_run()
    }))
    .map_err(panic_message)?
    .map_err(|e| e.to_string())?;
    let trace = report.trace.take();
    let metrics = report.metrics.take();
    if observed {
        let (Some(trace), Some(metrics)) = (trace, metrics) else {
            return Err("an observed run returned no trace or metrics".to_owned());
        };
        black_box(trace.to_chrome_trace());
        black_box(metrics.to_json());
    } else if trace.is_some() || metrics.is_some() {
        return Err("an unobserved run returned a trace or metrics".to_owned());
    }
    if !report.invariants.is_clean() {
        return Err(format!("invariants violated: {}", report.invariants));
    }
    Ok(SimRun {
        digest: report_digest(&report),
        core_cycles: report.core_stats.iter().map(|c| c.total_cycles).sum(),
    })
}

/// Recomputes every expected output at `size` (the `--record` mode).
pub fn record(size: Size) -> Result<String, String> {
    let mut out = String::new();
    let experiments = experiments::all();
    let scale = size.scale();
    for (experiment, result) in experiments
        .iter()
        .zip(run_suite(&experiments, scale, 1, None))
    {
        out += &expected_line(size, "suite", experiment.id, hex(result?));
    }
    out += &expected_line(
        size,
        "suite",
        "core_cycles",
        suite_core_cycles(&experiments, scale).to_string(),
    );
    let mut calibration = crate::calibrate::Calibration::new();
    calibration.sample();
    out += &expected_line(
        size,
        "calibration",
        "makespan",
        calibration.makespan().to_string(),
    );
    for workload in [Workload::MemboundObserved, Workload::ComputeboundManycore] {
        for input in 0..INPUTS {
            let spec = SimSpec::of(workload, size, input);
            let run = run_sim(&spec, false)?;
            // The suite's cycle count comes from FSM residency; pin here
            // that it equals the per-core cycle sum the simulations report.
            let observed = run_sim_with_metrics(&spec)?;
            if observed != run.core_cycles {
                return Err(format!(
                    "{} input {input}: FSM residency {observed} != core cycles {}",
                    workload.name(),
                    run.core_cycles
                ));
            }
            out += &expected_line(
                size,
                workload.name(),
                &format!("input{input}"),
                hex(run.digest),
            );
        }
    }
    Ok(out)
}

fn run_sim_with_metrics(spec: &SimSpec) -> Result<u64, String> {
    let report = Simulation::new(spec.config().with_metrics(), PolicyKind::Mapg)
        .try_run()
        .map_err(|e| e.to_string())?;
    report
        .metrics
        .as_ref()
        .map(fsm_cycles)
        .ok_or_else(|| "no metrics".to_owned())
}
