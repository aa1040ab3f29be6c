//! The traced decomposition of one simulation into its layers.
//!
//! `Simulation` runs trace generation, the core model, the memory
//! hierarchy and the controller interleaved in one call, so each layer is
//! timed from outside by re-running the same simulation in pieces:
//!
//! - `trace.gen`: each core's generator drained to the budget;
//! - `trace.record`: the same streams recorded for replay;
//! - `cpu.substrate`: the cluster over the replays with the passive
//!   handler (cores, event wheel, caches, MSHRs, DRAM);
//! - `mem.access`: the hierarchy alone over the recorded accesses;
//! - `controller.replay`: the cluster over the replays driving the real
//!   `Controller` (policy, predictor, FSMs, tokens, energy ledger);
//! - `obs.replay`, `obs.collect`, `obs.export`: the same with observability
//!   on, then collecting and exporting what it recorded;
//! - `sim.live`, `sim.observed`: the whole simulation, off and on.
//!
//! The controller replay must reproduce the live simulation exactly; the
//! makespan and gating statistics are compared on every decomposition.

use std::collections::BTreeMap;
use std::hint::black_box;

use mapg::{Controller, ControllerConfig, FaultPlan, PolicyKind, Simulation};
use mapg_cpu::{Cluster, ClusterStats, CoreConfig, PassiveHandler, StallHandler, StallInfo};
use mapg_mem::{HierarchyConfig, MemoryHierarchy};
use mapg_obs::ObsHandle;
use mapg_trace::{EventSource, RecordedTrace, SyntheticWorkload, TraceEvent};
use mapg_units::Cycle;

use crate::measure::median;
use crate::spans::Spans;
use crate::workloads::{Outcome, SimSpec};

/// Counts handler calls; wraps both the passive handler and the controller
/// so the wrapper's own cost cancels out of `controller.self_s`.
struct Counting<H> {
    inner: H,
    calls: u64,
}

impl<H: StallHandler> StallHandler for Counting<H> {
    fn on_stall(&mut self, info: &StallInfo) -> Cycle {
        self.calls += 1;
        self.inner.on_stall(info)
    }
}

/// Times each decomposition piece is run; a piece's time is the median.
const REPEATS: usize = 3;

/// Counts and piece times accumulated over every decomposed simulation.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Per piece, the sum over simulations of its median time in seconds.
    pub seconds: BTreeMap<&'static str, f64>,
    pub trace_events: u64,
    pub cpu_instructions: u64,
    pub cpu_stalls: u64,
    pub cpu_stall_cycles: u64,
    pub cpu_cycles: u64,
    pub mem_isolated_accesses: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub mshr_stalls: u64,
    pub controller_stalls: u64,
    pub controller_gated: u64,
    pub controller_regates: u64,
    pub predictions: f64,
    pub predictions_within25: f64,
    pub tokens_peak: u64,
    pub obs_records: u64,
    pub obs_kept: u64,
    pub obs_trace_bytes: u64,
}

impl LayerCounts {
    pub fn seconds(&self, piece: &str) -> f64 {
        self.seconds.get(piece).copied().unwrap_or(0.0)
    }
}

/// Builds the controller `Simulation::try_run` builds for `spec`.
fn controller_for(spec: &SimSpec) -> Controller {
    let config = spec.config();
    let controller_config = ControllerConfig {
        tech: *config.tech(),
        circuit: config.circuit(),
        clock: CoreConfig::baseline().clock,
        tokens: spec.tokens,
        regate_on_early_wake: true,
        fault_plan: FaultPlan::none(),
        fault_seed: spec.seed,
        watchdog: None,
    };
    Controller::new(PolicyKind::Mapg.instantiate(), controller_config)
}

fn cluster(traces: &[RecordedTrace]) -> Cluster<mapg_trace::Replay<'_>> {
    Cluster::try_new(
        CoreConfig::baseline(),
        HierarchyConfig::baseline(),
        traces.iter().map(RecordedTrace::replay).collect(),
    )
    .expect("the baseline cluster configuration is valid")
}

/// Replays `traces` through a cluster driving `controller`, then closes
/// the controller's books as the live simulation does.
fn replay_controller(
    spec: &SimSpec,
    traces: &[RecordedTrace],
    controller: &mut Controller,
    obs: &ObsHandle,
) -> ClusterStats {
    let mut cluster = cluster(traces);
    cluster.set_obs(obs.clone());
    controller.set_obs(obs.clone());
    let mut handler = Counting {
        inner: &mut *controller,
        calls: 0,
    };
    cluster
        .try_run(spec.instructions, &mut handler)
        .expect("a non-zero budget");
    black_box(handler.calls);
    let stats = cluster.stats();
    let final_times: Vec<Cycle> = stats
        .per_core
        .iter()
        .map(|c| Cycle::new(c.total_cycles))
        .collect();
    controller.finish(&final_times);
    stats
}

/// Decomposes one simulation under `parent`, adding its counts and piece
/// times to `counts` and its cross-check to `outcome`.
pub fn decompose(
    spans: &Spans,
    parent: usize,
    spec: &SimSpec,
    counts: &mut LayerCounts,
    outcome: &mut Outcome,
) {
    spans.record(format!("decompose.{}", spec.label), Some(parent), |id| {
        // Each piece runs REPEATS times in spans of its own; the last run's
        // result is kept and the median time is added to the piece's total.
        let mut seconds = BTreeMap::new();
        let mut piece = |name: &'static str, f: &mut dyn FnMut()| {
            let times: Vec<f64> = (0..REPEATS)
                .map(|_| spans.record_timed(name, Some(id), |_| f()).1)
                .collect();
            *seconds.entry(name).or_insert(0.0) += median(&times);
        };
        let config = spec.config();

        let mut live = None;
        piece("sim.live", &mut || {
            live = Some(Simulation::new(config.clone(), PolicyKind::Mapg).try_run())
        });
        piece("sim.observed", &mut || {
            let observed = config.clone().with_trace().with_metrics();
            black_box(Simulation::new(observed, PolicyKind::Mapg).try_run().ok());
        });

        let seeds = (0..spec.cores).map(|core| spec.seed + core as u64);
        let mut events = 0;
        piece("trace.gen", &mut || {
            events = 0;
            for (core, seed) in seeds.clone().enumerate() {
                let mut workload = SyntheticWorkload::new(spec.profile_of(core), seed);
                let mut covered = 0;
                while covered < spec.instructions {
                    let event = workload.next_event();
                    covered += event.instructions();
                    events += 1;
                    black_box(event);
                }
            }
        });
        let mut traces = Vec::new();
        piece("trace.record", &mut || {
            traces = seeds
                .clone()
                .enumerate()
                .map(|(core, seed)| {
                    let mut workload = SyntheticWorkload::new(spec.profile_of(core), seed);
                    RecordedTrace::record(&mut workload, spec.instructions)
                })
                .collect();
        });

        piece("cpu.substrate", &mut || {
            let mut cluster = cluster(&traces);
            let mut handler = Counting {
                inner: PassiveHandler,
                calls: 0,
            };
            cluster
                .try_run(spec.instructions, &mut handler)
                .expect("a non-zero budget");
            black_box((handler.calls, cluster.stats()));
        });

        let mut accesses = 0;
        piece("mem.access", &mut || {
            // Time advances by each event's cycles, one per access, so the
            // hierarchy sees a monotone clock; cores run back to back.
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::baseline());
            let mut now = 0u64;
            accesses = 0;
            for trace in &traces {
                for event in trace.events() {
                    match event {
                        TraceEvent::Compute { cycles, .. } | TraceEvent::Idle { cycles } => {
                            now += cycles
                        }
                        TraceEvent::MemAccess(access) => {
                            black_box(hierarchy.access(Cycle::new(now), access));
                            now += 1;
                            accesses += 1;
                        }
                    }
                }
            }
        });

        let mut replayed = None;
        piece("controller.replay", &mut || {
            let mut controller = controller_for(spec);
            let stats = replay_controller(spec, &traces, &mut controller, &ObsHandle::disabled());
            replayed = Some((stats, controller));
        });
        let (replayed, controller) = replayed.expect("replay ran");

        let mut obs = ObsHandle::disabled();
        piece("obs.replay", &mut || {
            obs = ObsHandle::enabled(Some(mapg_obs::DEFAULT_TRACE_CAPACITY), true);
            let mut observed = controller_for(spec);
            black_box(replay_controller(spec, &traces, &mut observed, &obs));
        });
        let mut collected = (None, None);
        piece("obs.collect", &mut || collected = obs.collect());
        let (Some(trace), Some(metrics)) = collected else {
            outcome.check(
                &spec.label,
                Err("observed replay collected nothing".to_owned()),
            );
            return;
        };
        let mut trace_bytes = 0;
        piece("obs.export", &mut || {
            trace_bytes = trace.to_chrome_trace().len() as u64;
            black_box(metrics.to_json());
        });

        for (name, s) in seconds {
            *counts.seconds.entry(name).or_insert(0.0) += s;
        }
        counts.trace_events += events;
        counts.mem_isolated_accesses += accesses;
        counts.obs_trace_bytes += trace_bytes;
        counts.obs_kept += trace.len() as u64;
        counts.obs_records += trace.len() as u64 + trace.dropped();

        let memory = &replayed.memory;
        counts.cpu_instructions += replayed.total_instructions();
        for core in &replayed.per_core {
            counts.cpu_stalls += core.stall_count;
            counts.cpu_stall_cycles += core.stall_cycles;
            counts.cpu_cycles += core.total_cycles;
        }
        counts.l1_accesses += memory.l1.accesses;
        counts.l1_misses += memory.l1.misses();
        counts.l2_accesses += memory.l2.accesses;
        counts.l2_misses += memory.l2.misses();
        counts.dram_accesses += memory.dram.accesses();
        counts.dram_row_hits += memory.dram.row_hits;
        counts.mshr_stalls += memory.mshr_stalls;
        let gating = controller.stats();
        counts.controller_stalls += gating.stalls;
        counts.controller_gated += gating.gated;
        counts.controller_regates += gating.regates;
        if let Some(score) = controller.policy().predictor_score() {
            counts.predictions += score.predictions() as f64;
            counts.predictions_within25 += score.accuracy() * score.predictions() as f64;
        }
        let peak = controller
            .token_manager()
            .map_or(0, |t| t.peak_concurrency());
        counts.tokens_peak = counts.tokens_peak.max(peak as u64);

        let check = match live.expect("live run ran") {
            Err(error) => Err(format!("live simulation failed: {error}")),
            Ok(live) if live.makespan_cycles != replayed.makespan_cycles() => Err(format!(
                "replay makespan {} != live makespan {}",
                replayed.makespan_cycles(),
                live.makespan_cycles
            )),
            Ok(live) if live.gating != *gating => {
                Err("replay gating statistics differ from the live run".to_owned())
            }
            Ok(_) => Ok(()),
        };
        outcome.check(&format!("decompose.{}", spec.label), check);
    });
}
