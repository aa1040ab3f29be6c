//! Miss-latency (stall-duration) predictors.
//!
//! MAPG's gating decision is a comparison between the *predicted* duration
//! of the stall that just began and the circuit's break-even time. Since a
//! DRAM access's latency varies with row-buffer state, bank contention and
//! refresh, a predictor is needed; the paper-era design space — static
//! estimate, last value, exponential average, PC-indexed history — is
//! implemented here and compared in experiment R-F7.

use std::collections::HashMap;

use mapg_cpu::StallInfo;
use mapg_units::Cycles;

use core::fmt;

/// Predicts the duration of a stall at its onset, learning from completed
/// stalls; [`PredictorKind`](crate::PredictorKind) selects the variant.
///
/// Every variant derives its prediction **only** from past observations
/// and the onset context in [`StallInfo`] (PC, cause, outstanding count) —
/// never from `StallInfo::data_ready`, which is oracle information. The
/// only intentional exception is [`Predictor::Oracle`], the upper-bound
/// reference.
#[derive(Debug, Clone)]
pub(crate) enum Predictor {
    /// Always predicts a fixed duration (e.g. the nominal DRAM round trip).
    Static {
        /// The fixed prediction.
        estimate: Cycles,
    },
    /// Predicts the duration of the previous stall (global last-value).
    LastValue {
        /// The previous stall's duration (the seed before the first).
        last: Cycles,
    },
    /// One exponentially weighted moving average over all stalls.
    Ewma(Ewma),
    /// PC-indexed table of EWMAs: stalls caused by different load
    /// instructions (different traversal patterns) learn independently.
    /// This is the predictor MAPG's policy uses.
    HistoryTable {
        /// Per-PC averages.
        table: HashMap<u64, Ewma>,
        /// Prediction for untracked PCs, and every new entry's seed.
        default_estimate: Cycles,
        /// Smoothing of new entries (`alpha = alpha_x16 / 16`).
        alpha_x16: u64,
        /// Most PCs tracked at once.
        capacity: usize,
    },
    /// The oracle: "predicts" the actual duration. Upper bound for R-F7
    /// and the decision engine of the `MapgOracle` policy.
    Oracle,
}

impl Predictor {
    /// A global EWMA with smoothing `alpha_x16/16`, seeded at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha_x16` is not in `1..=16`.
    pub(crate) fn ewma(initial: Cycles, alpha_x16: u64) -> Self {
        Predictor::Ewma(Ewma::new(initial, alpha_x16))
    }

    /// A table of at most `capacity` PC entries, each an EWMA with the
    /// given smoothing, falling back to `default_estimate` for unseen PCs.
    /// The hardware-realistic default is 64 entries, alpha = 4/16, seeded
    /// at 200 cycles (a typical loaded DRAM round trip).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `alpha_x16` not in `1..=16`.
    pub(crate) fn history_table(default_estimate: Cycles, alpha_x16: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "history table needs capacity");
        assert!(
            (1..=16).contains(&alpha_x16),
            "alpha_x16 must be in 1..=16, got {alpha_x16}"
        );
        Predictor::HistoryTable {
            table: HashMap::new(),
            default_estimate,
            alpha_x16,
            capacity,
        }
    }

    /// Predicts the duration of the stall described by `info`.
    pub(crate) fn predict(&self, info: &StallInfo) -> Cycles {
        match self {
            Predictor::Static { estimate } => *estimate,
            Predictor::LastValue { last } => *last,
            Predictor::Ewma(ewma) => ewma.predict(),
            Predictor::HistoryTable {
                table,
                default_estimate,
                ..
            } => table.get(&info.pc).map_or(*default_estimate, Ewma::predict),
            Predictor::Oracle => info.natural_duration(),
        }
    }

    /// Learns from a completed stall of duration `actual`.
    pub(crate) fn observe(&mut self, info: &StallInfo, actual: Cycles) {
        match self {
            Predictor::Static { .. } | Predictor::Oracle => {}
            Predictor::LastValue { last } => *last = actual,
            Predictor::Ewma(ewma) => ewma.fold(actual),
            Predictor::HistoryTable {
                table,
                default_estimate,
                alpha_x16,
                capacity,
            } => {
                if let Some(entry) = table.get_mut(&info.pc) {
                    entry.fold(actual);
                } else if table.len() < *capacity {
                    let mut entry = Ewma::new(*default_estimate, *alpha_x16);
                    entry.fold(actual);
                    table.insert(info.pc, entry);
                }
                // Table full and PC untracked: drop the sample (no
                // replacement policy, like a direct-mapped untagged table
                // would alias — the conservative choice for a model).
            }
        }
    }
}

/// Fixed-point exponentially weighted moving average.
///
/// The EWMA is maintained in 1/16-cycle fixed point with `alpha = n/16`,
/// matching what a hardware implementation (shift-add) would do.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ewma {
    /// EWMA in 1/16 cycles.
    state_x16: u64,
    /// Numerator of alpha over 16 (1..=16).
    alpha_x16: u64,
}

impl Ewma {
    fn new(initial: Cycles, alpha_x16: u64) -> Self {
        assert!(
            (1..=16).contains(&alpha_x16),
            "alpha_x16 must be in 1..=16, got {alpha_x16}"
        );
        Ewma {
            state_x16: initial.raw() * 16,
            alpha_x16,
        }
    }

    fn predict(&self) -> Cycles {
        Cycles::new(self.state_x16 / 16)
    }

    fn fold(&mut self, actual: Cycles) {
        let sample_x16 = actual.raw() * 16;
        self.state_x16 =
            (self.state_x16 * (16 - self.alpha_x16) + sample_x16 * self.alpha_x16) / 16;
    }
}

/// Accuracy bookkeeping wrapped around any predictor (experiment R-F7).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorScore {
    predictions: u64,
    /// |error| within 25 % of actual.
    within_band: u64,
    overpredictions: u64,
    underpredictions: u64,
    abs_error_sum: u64,
}

impl PredictorScore {
    /// An empty score.
    pub fn new() -> Self {
        PredictorScore {
            predictions: 0,
            within_band: 0,
            overpredictions: 0,
            underpredictions: 0,
            abs_error_sum: 0,
        }
    }

    /// Records one (predicted, actual) pair.
    pub fn record(&mut self, predicted: Cycles, actual: Cycles) {
        self.predictions += 1;
        let p = predicted.raw();
        let a = actual.raw();
        let err = p.abs_diff(a);
        self.abs_error_sum += err;
        if err * 4 <= a {
            self.within_band += 1;
        } else if p > a {
            self.overpredictions += 1;
        } else {
            self.underpredictions += 1;
        }
    }

    /// Number of predictions scored.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Fraction of predictions within ±25 % of the actual duration.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.within_band as f64 / self.predictions as f64
        }
    }

    /// Fraction of significant overpredictions (would gate stalls that are
    /// too short — energy loss).
    pub fn over_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.overpredictions as f64 / self.predictions as f64
        }
    }

    /// Fraction of significant underpredictions (would wake too early or
    /// skip good stalls — opportunity loss).
    pub fn under_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.underpredictions as f64 / self.predictions as f64
        }
    }

    /// Mean absolute error in cycles.
    pub fn mean_abs_error(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.abs_error_sum as f64 / self.predictions as f64
        }
    }
}

impl Default for PredictorScore {
    fn default() -> Self {
        PredictorScore::new()
    }
}

impl fmt::Display for PredictorScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} preds, {:.1}% within 25%, MAE {:.0} cyc",
            self.predictions,
            self.accuracy() * 100.0,
            self.mean_abs_error()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_cpu::{CoreId, StallCause};
    use mapg_units::Cycle;

    fn info(pc: u64, duration: u64) -> StallInfo {
        StallInfo {
            core: CoreId(0),
            start: Cycle::new(1000),
            data_ready: Cycle::new(1000 + duration),
            pc,
            outstanding: 1,
            cause: StallCause::Dependency,
        }
    }

    #[test]
    fn static_predictor_never_moves() {
        let mut p = Predictor::Static {
            estimate: Cycles::new(150),
        };
        let i = info(0x400, 500);
        assert_eq!(p.predict(&i), Cycles::new(150));
        p.observe(&i, Cycles::new(500));
        assert_eq!(p.predict(&i), Cycles::new(150));
    }

    #[test]
    fn last_value_tracks_previous() {
        let mut p = Predictor::LastValue {
            last: Cycles::new(100),
        };
        let i = info(0x400, 300);
        assert_eq!(p.predict(&i), Cycles::new(100));
        p.observe(&i, Cycles::new(300));
        assert_eq!(p.predict(&i), Cycles::new(300));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut p = Predictor::ewma(Cycles::new(100), 4);
        let i = info(0x400, 400);
        for _ in 0..100 {
            p.observe(&i, Cycles::new(400));
        }
        let predicted = p.predict(&i).raw();
        assert!(
            predicted.abs_diff(400) <= 2,
            "EWMA should converge, got {predicted}"
        );
    }

    #[test]
    fn ewma_is_smoother_than_last_value() {
        let mut ewma = Predictor::ewma(Cycles::new(200), 2);
        let i = info(0x400, 0);
        // One outlier among steady 200s.
        for _ in 0..20 {
            ewma.observe(&i, Cycles::new(200));
        }
        ewma.observe(&i, Cycles::new(2000));
        let after_outlier = ewma.predict(&i).raw();
        assert!(
            after_outlier < 500,
            "one outlier shouldn't dominate: {after_outlier}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha_x16")]
    fn ewma_rejects_bad_alpha() {
        let _ = Predictor::ewma(Cycles::new(10), 0);
    }

    /// PCs tracked by a history table.
    fn entries(p: &Predictor) -> usize {
        match p {
            Predictor::HistoryTable { table, .. } => table.len(),
            other => panic!("not a history table: {other:?}"),
        }
    }

    #[test]
    fn history_table_separates_pcs() {
        let mut p = Predictor::history_table(Cycles::new(200), 8, 16);
        let fast = info(0x100, 0);
        let slow = info(0x200, 0);
        for _ in 0..50 {
            p.observe(&fast, Cycles::new(80));
            p.observe(&slow, Cycles::new(600));
        }
        let fast_pred = p.predict(&fast).raw();
        let slow_pred = p.predict(&slow).raw();
        assert!(fast_pred < 150, "fast PC learned {fast_pred}");
        assert!(slow_pred > 400, "slow PC learned {slow_pred}");
        assert_eq!(entries(&p), 2);
    }

    #[test]
    fn history_table_caps_capacity() {
        let mut p = Predictor::history_table(Cycles::new(200), 8, 4);
        for pc in 0..100u64 {
            p.observe(&info(pc, 0), Cycles::new(100));
        }
        assert_eq!(entries(&p), 4);
        // Untracked PCs fall back to the default.
        assert_eq!(p.predict(&info(99, 0)), Cycles::new(200));
    }

    #[test]
    fn oracle_reads_the_future() {
        assert_eq!(Predictor::Oracle.predict(&info(0x1, 432)), Cycles::new(432));
    }

    #[test]
    fn score_classifies_errors() {
        let mut score = PredictorScore::new();
        score.record(Cycles::new(100), Cycles::new(100)); // exact
        score.record(Cycles::new(110), Cycles::new(100)); // within 25%
        score.record(Cycles::new(300), Cycles::new(100)); // over
        score.record(Cycles::new(10), Cycles::new(100)); // under
        assert_eq!(score.predictions(), 4);
        assert!((score.accuracy() - 0.5).abs() < 1e-12);
        assert!((score.over_rate() - 0.25).abs() < 1e-12);
        assert!((score.under_rate() - 0.25).abs() < 1e-12);
        assert!(score.mean_abs_error() > 0.0);
        assert!(score.to_string().contains("4 preds"));
    }

    #[test]
    fn empty_score_is_benign() {
        let score = PredictorScore::new();
        assert_eq!(score.accuracy(), 0.0);
        assert_eq!(score.over_rate(), 0.0);
        assert_eq!(score.under_rate(), 0.0);
        assert_eq!(score.mean_abs_error(), 0.0);
    }
}
