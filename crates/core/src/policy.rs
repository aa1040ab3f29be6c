//! Gating policies: what to do with a memory stall.
//!
//! A [`Policy`] sees each stall at its onset and picks a [`StallAction`].
//! The [`Controller`](crate::Controller) executes the action, charges the
//! energy, and reports the resume time back to the core. The policy zoo,
//! by [`PolicyKind`]:
//!
//! | policy | action on stall | wake scheduling | what it represents |
//! |---|---|---|---|
//! | `no-gating` | stay active | — | no power management |
//! | `clock-gating` | stop clocks | — | conventional fine-grain clock gating |
//! | `dvfs-stall` | scale V/f down | — | DVFS-during-stall baseline |
//! | `naive-on-miss` | gate every stall | reactive (starts at data arrival) | gating without MAPG's machinery |
//! | `timeout` | gate after idle timeout | reactive | classic idle-driven power gating |
//! | `mapg-oracle` | gate iff `actual ≥ BET` | early (hidden under miss) | upper bound |
//! | `mapg` | gate iff `predicted ≥ BET` | early, from prediction | **the paper's policy** |
//! | `mapg-always-gate` | gate every stall | early, from prediction | ablation: no break-even guard |
//! | `mapg-no-early-wake` | gate iff `predicted ≥ BET` | reactive | ablation: no early wake |
//! | `mapg+<predictor>` | gate iff `predicted ≥ BET` | early, from prediction | MAPG under each predictor (R-F7) |

use mapg_cpu::StallInfo;
use mapg_power::OperatingPoint;
use mapg_units::{Cycle, Cycles};

use crate::predictor::{Predictor, PredictorScore};

/// Circuit-derived constants the controller hands every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyContext {
    /// Sleep-entry latency.
    pub entry: Cycles,
    /// Wake-up latency.
    pub wakeup: Cycles,
    /// Break-even time of the configured circuit.
    pub break_even: Cycles,
}

/// What to do with one stall.
#[derive(Debug, Clone, PartialEq)]
pub enum StallAction {
    /// Burn idle power (clock tree + leakage) until the data arrives.
    StayActive,
    /// Stop the clocks: leakage only until the data arrives.
    ClockGate,
    /// Drop to a DVFS operating point for the duration of the stall.
    DvfsScale {
        /// The point to park at.
        point: OperatingPoint,
    },
    /// Power-gate the core.
    PowerGate {
        /// When to begin sleep entry (`>= stall start`; a timeout policy
        /// gates late).
        gate_at: Cycle,
        /// When to begin the wake ramp. The controller clamps this to the
        /// end of sleep entry and may delay it further for a wake token.
        wake_at: Cycle,
    },
}

/// A gating policy: one [`PolicyKind`] plus, for the MAPG variants, the
/// predictor state it learns. Build one with [`PolicyKind::instantiate`].
///
/// The controller guarantees `decide` and `observe` are called in strict
/// alternation for each stall (stalls resolve synchronously), so a policy
/// may carry per-stall scratch state between the two calls.
#[derive(Debug, Clone)]
pub struct Policy {
    kind: PolicyKind,
    /// Present exactly for the MAPG kinds.
    mapg: Option<MapgState>,
}

/// What a MAPG policy carries between stalls.
#[derive(Debug, Clone)]
struct MapgState {
    predictor: Predictor,
    score: PredictorScore,
    /// Break-even guard multiplier: gate iff `predicted ≥ guard · BET`.
    guard: f64,
    /// Prediction made in `decide`, consumed by the matching `observe`.
    pending_prediction: Option<Cycles>,
}

impl Policy {
    /// Chooses an action for the stall described by `info`.
    pub fn decide(&mut self, info: &StallInfo, ctx: &PolicyContext) -> StallAction {
        let mapg = match self.kind {
            // No power management at all.
            PolicyKind::NoGating => return StallAction::StayActive,
            // Clock gating during every stall: removes idle dynamic power,
            // keeps leakage. Zero latency, zero risk — the reference
            // conventional technique.
            PolicyKind::ClockGating => return StallAction::ClockGate,
            // DVFS to the floor point during every stall. Idealized in the
            // policy's favour: the V/f transition itself is modelled as
            // free, which real PLL relock times (microseconds) would never
            // allow at stall granularity. Even so it keeps paying
            // `V³`-scaled leakage.
            PolicyKind::DvfsStall => {
                return StallAction::DvfsScale {
                    point: OperatingPoint::min(),
                }
            }
            // Gate on every stall, wake reactively when the data arrives.
            // Pays the full wake latency as a performance penalty on every
            // gated stall and loses energy on short stalls — the strawman
            // MAPG improves on.
            PolicyKind::NaiveOnMiss => {
                return StallAction::PowerGate {
                    gate_at: info.start,
                    wake_at: info.data_ready,
                }
            }
            // Classic idle-timeout gating: gate only once the core has been
            // idle for `idle_cycles`, wake reactively. With the synchronous
            // stall model the policy *knows* `data_ready`; it uses it solely
            // to evaluate whether the timeout would have expired before the
            // data returned — i.e. to faithfully emulate the timeout
            // hardware, not to predict.
            PolicyKind::Timeout { idle_cycles } => {
                let gate_at = info.start + Cycles::new(idle_cycles);
                return if gate_at >= info.data_ready {
                    // The data would arrive before the timeout fires: never
                    // gates. The idle wait itself is clock-gated, as in any
                    // contemporary core.
                    StallAction::ClockGate
                } else {
                    StallAction::PowerGate {
                        gate_at,
                        wake_at: info.data_ready,
                    }
                };
            }
            PolicyKind::MapgOracle
            | PolicyKind::Mapg
            | PolicyKind::MapgAlwaysGate
            | PolicyKind::MapgNoEarlyWake
            | PolicyKind::MapgWith { .. } => self
                .mapg
                .as_mut()
                .expect("every MAPG kind carries predictor state"),
        };

        // MAPG, on each stall:
        // 1. predict the stall duration `d̂`;
        // 2. gate iff `d̂ ≥ guard · BET` (the guard margin biases against
        //    gating marginal stalls, where a mis-prediction costs energy
        //    *and* time);
        // 3. if gating and early wake is enabled, schedule the wake ramp to
        //    end exactly at the predicted data arrival (`wake_at = start +
        //    d̂ − T_wake`), hiding the wake latency under the memory latency.
        // With the oracle predictor this is the paper's oracle variant; with
        // the history table it is the deployable policy.
        let predicted = mapg.predictor.predict(info);
        mapg.pending_prediction = Some(predicted);

        let threshold = ctx.break_even.scale(mapg.guard);
        if predicted < threshold {
            // Stalls judged too short to gate are still clock-gated —
            // MAPG deploys on top of conventional clock gating.
            return StallAction::ClockGate;
        }

        // End the wake ramp at the predicted data arrival (saturating at
        // the stall start). The controller clamps to entry completion, so
        // heavy underprediction degrades gracefully into a minimal nap.
        let wake_at = if self.kind == PolicyKind::MapgNoEarlyWake {
            info.data_ready
        } else {
            info.start + predicted.saturating_sub(ctx.wakeup)
        };

        StallAction::PowerGate {
            gate_at: info.start,
            wake_at,
        }
    }

    /// Learns from the completed stall's actual duration.
    pub fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        if let Some(mapg) = &mut self.mapg {
            if let Some(predicted) = mapg.pending_prediction.take() {
                mapg.score.record(predicted, actual);
            }
            mapg.predictor.observe(info, actual);
        }
    }

    /// Short name for reports: the kind's [`PolicyKind::name`].
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Prediction-accuracy bookkeeping, for the MAPG kinds.
    pub fn predictor_score(&self) -> Option<&PredictorScore> {
        self.mapg.as_ref().map(|mapg| &mapg.score)
    }

    /// Sets a MAPG policy's break-even guard multiplier (default 1.0;
    /// 0.0 for `mapg-always-gate`). Values above 1 gate more
    /// conservatively.
    ///
    /// # Panics
    ///
    /// Panics if the policy is not a MAPG kind, or if `guard` is negative
    /// or not finite.
    pub fn with_guard(mut self, guard: f64) -> Self {
        assert!(
            guard.is_finite() && guard >= 0.0,
            "guard must be finite and non-negative, got {guard}"
        );
        match &mut self.mapg {
            Some(mapg) => mapg.guard = guard,
            None => panic!("a guard needs a MAPG policy, not {}", self.name()),
        }
        self
    }
}

impl From<PolicyKind> for Policy {
    fn from(kind: PolicyKind) -> Self {
        kind.instantiate()
    }
}

/// Selects a policy by name — the configuration surface the simulation,
/// benches and examples share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No power management.
    NoGating,
    /// Clock gating during every stall.
    ClockGating,
    /// DVFS to the floor operating point during every stall.
    DvfsStall,
    /// Power-gate every stall, wake reactively.
    NaiveOnMiss,
    /// Power-gate once idle for the given threshold in cycles, wake
    /// reactively.
    Timeout {
        /// Idle cycles before gating.
        idle_cycles: u64,
    },
    /// MAPG with perfect duration knowledge and perfect wake timing.
    MapgOracle,
    /// The paper's policy: PC-indexed history predictor, unity guard,
    /// early wake on.
    Mapg,
    /// Ablation: prediction and break-even guard disabled — gate every
    /// stall but keep early-wake scheduling (from the predictor's
    /// estimate).
    MapgAlwaysGate,
    /// Ablation: break-even guard kept, early wake disabled (reactive wake
    /// at data arrival).
    MapgNoEarlyWake,
    /// MAPG with an explicitly chosen predictor (experiment R-F7).
    MapgWith {
        /// The predictor to drive the policy with.
        predictor: PredictorKind,
    },
}

/// Selects a miss-latency predictor for [`PolicyKind::MapgWith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// A fixed 200-cycle estimate.
    Static,
    /// The previous stall's duration (seeded at 200 cycles).
    LastValue,
    /// A global EWMA (alpha = 4/16, seeded at 200 cycles).
    Ewma,
    /// A PC-indexed table of EWMAs (64 entries, alpha = 4/16, seeded at
    /// 200 cycles) — the MAPG default.
    HistoryTable,
    /// The actual duration (an upper bound, not a predictor).
    Oracle,
}

impl PredictorKind {
    /// All predictor kinds, weakest first.
    pub const ALL: [PredictorKind; 5] = [
        PredictorKind::Static,
        PredictorKind::LastValue,
        PredictorKind::Ewma,
        PredictorKind::HistoryTable,
        PredictorKind::Oracle,
    ];

    fn instantiate(&self) -> Predictor {
        let seed = Cycles::new(200);
        match self {
            PredictorKind::Static => Predictor::Static { estimate: seed },
            PredictorKind::LastValue => Predictor::LastValue { last: seed },
            PredictorKind::Ewma => Predictor::ewma(seed, 4),
            PredictorKind::HistoryTable => Predictor::history_table(seed, 4, 64),
            PredictorKind::Oracle => Predictor::Oracle,
        }
    }

    /// Display name of the MAPG variant driven by this predictor.
    pub fn policy_name(&self) -> &'static str {
        match self {
            PredictorKind::Static => "mapg+static",
            PredictorKind::LastValue => "mapg+last-value",
            PredictorKind::Ewma => "mapg+ewma",
            PredictorKind::HistoryTable => "mapg+history-table",
            PredictorKind::Oracle => "mapg+oracle",
        }
    }
}

impl PolicyKind {
    /// The comparison set used by the headline experiments (R-T3, R-F2,
    /// R-F3): every baseline plus MAPG and its oracle.
    pub const COMPARISON_SET: [PolicyKind; 7] = [
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::DvfsStall,
        PolicyKind::NaiveOnMiss,
        PolicyKind::Timeout { idle_cycles: 100 },
        PolicyKind::Mapg,
        PolicyKind::MapgOracle,
    ];

    /// Instantiates the policy.
    pub fn instantiate(&self) -> Policy {
        let predictor = match *self {
            PolicyKind::NoGating
            | PolicyKind::ClockGating
            | PolicyKind::DvfsStall
            | PolicyKind::NaiveOnMiss
            | PolicyKind::Timeout { .. } => None,
            PolicyKind::MapgOracle => Some(PredictorKind::Oracle),
            PolicyKind::Mapg | PolicyKind::MapgAlwaysGate | PolicyKind::MapgNoEarlyWake => {
                Some(PredictorKind::HistoryTable)
            }
            PolicyKind::MapgWith { predictor } => Some(predictor),
        };
        Policy {
            kind: *self,
            mapg: predictor.map(|predictor| MapgState {
                predictor: predictor.instantiate(),
                score: PredictorScore::new(),
                guard: if *self == PolicyKind::MapgAlwaysGate {
                    0.0
                } else {
                    1.0
                },
                pending_prediction: None,
            }),
        }
    }

    /// The policy's display name (also its [`Policy::name`]).
    pub fn name(&self) -> &'static str {
        match *self {
            PolicyKind::NoGating => "no-gating",
            PolicyKind::ClockGating => "clock-gating",
            PolicyKind::DvfsStall => "dvfs-stall",
            PolicyKind::NaiveOnMiss => "naive-on-miss",
            PolicyKind::Timeout { .. } => "timeout",
            PolicyKind::MapgOracle => "mapg-oracle",
            PolicyKind::Mapg => "mapg",
            PolicyKind::MapgAlwaysGate => "mapg-always-gate",
            PolicyKind::MapgNoEarlyWake => "mapg-no-early-wake",
            PolicyKind::MapgWith { predictor } => predictor.policy_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_cpu::{CoreId, StallCause};

    fn ctx() -> PolicyContext {
        PolicyContext {
            entry: Cycles::new(3),
            wakeup: Cycles::new(10),
            break_even: Cycles::new(50),
        }
    }

    fn stall(duration: u64) -> StallInfo {
        StallInfo {
            core: CoreId(0),
            start: Cycle::new(1000),
            data_ready: Cycle::new(1000 + duration),
            pc: 0x400,
            outstanding: 1,
            cause: StallCause::Dependency,
        }
    }

    #[test]
    fn trivial_policies() {
        assert_eq!(
            PolicyKind::NoGating
                .instantiate()
                .decide(&stall(100), &ctx()),
            StallAction::StayActive
        );
        assert_eq!(
            PolicyKind::ClockGating
                .instantiate()
                .decide(&stall(100), &ctx()),
            StallAction::ClockGate
        );
        assert!(matches!(
            PolicyKind::DvfsStall
                .instantiate()
                .decide(&stall(100), &ctx()),
            StallAction::DvfsScale { .. }
        ));
    }

    #[test]
    fn naive_gates_everything_reactively() {
        let action = PolicyKind::NaiveOnMiss
            .instantiate()
            .decide(&stall(20), &ctx());
        assert_eq!(
            action,
            StallAction::PowerGate {
                gate_at: Cycle::new(1000),
                wake_at: Cycle::new(1020),
            }
        );
    }

    #[test]
    fn timeout_skips_short_stalls() {
        let mut policy = PolicyKind::Timeout { idle_cycles: 100 }.instantiate();
        assert_eq!(policy.decide(&stall(80), &ctx()), StallAction::ClockGate);
        match policy.decide(&stall(300), &ctx()) {
            StallAction::PowerGate { gate_at, wake_at } => {
                assert_eq!(gate_at, Cycle::new(1100));
                assert_eq!(wake_at, Cycle::new(1300));
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn oracle_gates_only_above_break_even() {
        let mut policy = PolicyKind::MapgOracle.instantiate();
        assert_eq!(
            policy.decide(&stall(30), &ctx()),
            StallAction::ClockGate,
            "below BET: clock-gated, not power-gated"
        );
        match policy.decide(&stall(200), &ctx()) {
            StallAction::PowerGate { gate_at, wake_at } => {
                assert_eq!(gate_at, Cycle::new(1000));
                // Wake ramp ends exactly at data arrival: 1200 - 10.
                assert_eq!(wake_at, Cycle::new(1190));
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn predictive_learns_then_gates() {
        let mut policy = PolicyKind::Mapg.instantiate();
        let info = stall(400);
        // Default estimate (200) ≥ BET (50): gates immediately.
        let action = policy.decide(&info, &ctx());
        assert!(matches!(action, StallAction::PowerGate { .. }));
        policy.observe(&info, info.natural_duration());
        assert_eq!(policy.predictor_score().map(|s| s.predictions()), Some(1));
    }

    #[test]
    fn predictive_skips_after_learning_short_stalls() {
        let mut policy = PolicyKind::Mapg.instantiate();
        let short = stall(10);
        let context = ctx();
        // Train the PC with many short stalls.
        for _ in 0..100 {
            let _ = policy.decide(&short, &context);
            policy.observe(&short, short.natural_duration());
        }
        assert_eq!(
            policy.decide(&short, &context),
            StallAction::ClockGate,
            "learned short stalls must not be power-gated"
        );
    }

    #[test]
    fn always_gate_ablation_ignores_break_even() {
        let mut policy = PolicyKind::MapgAlwaysGate.instantiate();
        let short = stall(10);
        let context = ctx();
        for _ in 0..50 {
            let action = policy.decide(&short, &context);
            assert!(
                matches!(action, StallAction::PowerGate { .. }),
                "always-gate must gate"
            );
            policy.observe(&short, short.natural_duration());
        }
    }

    #[test]
    fn no_early_wake_ablation_wakes_reactively() {
        let mut policy = PolicyKind::MapgNoEarlyWake.instantiate();
        match policy.decide(&stall(400), &ctx()) {
            StallAction::PowerGate { wake_at, .. } => {
                assert_eq!(wake_at, Cycle::new(1400), "reactive wake");
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "guard")]
    fn guard_must_be_finite() {
        let _ = PolicyKind::Mapg.instantiate().with_guard(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "MAPG policy")]
    fn guard_needs_a_mapg_kind() {
        let _ = PolicyKind::ClockGating.instantiate().with_guard(1.0);
    }
}
