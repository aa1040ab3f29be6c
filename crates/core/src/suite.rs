//! Suite runner: the workload-suite × policy-set experiment driver shared
//! by the benches, examples and integration tests.

use mapg_pool::Pool;
use mapg_trace::{WorkloadProfile, WorkloadSuite};

use crate::policy::PolicyKind;
use crate::report::{geometric_mean, RunReport};
use crate::sim::{SimConfig, Simulation};

/// Runs every (profile, policy) combination of a suite and collects the
/// reports.
///
/// The matrix is fanned out across a work-sharing thread pool
/// ([`mapg_pool::Pool`]); because every simulation is a seeded pure
/// function, the matrix is identical bit-for-bit at any job count — the
/// pool's ordered map keeps reports in (workload-major, policy-minor)
/// submission order regardless of completion order.
///
/// ```
/// use mapg::{PolicyKind, SimConfig, SuiteRunner};
/// use mapg_trace::WorkloadSuite;
///
/// let runner = SuiteRunner::new(
///     WorkloadSuite::extremes(),
///     SimConfig::default().with_instructions(20_000),
/// );
/// let matrix = runner.run(&[PolicyKind::NoGating, PolicyKind::Mapg]);
/// assert_eq!(matrix.reports().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    suite: WorkloadSuite,
    base: SimConfig,
    jobs: Option<usize>,
}

impl SuiteRunner {
    /// Creates a runner; `base` supplies everything but the profile.
    ///
    /// Parallelism defaults to [`mapg_pool::default_jobs`] (available
    /// parallelism, or the ambient [`mapg_pool::with_default_jobs`]
    /// override); pin it explicitly with [`with_jobs`](Self::with_jobs).
    pub fn new(suite: WorkloadSuite, base: SimConfig) -> Self {
        SuiteRunner {
            suite,
            base,
            jobs: None,
        }
    }

    /// Pins the worker count used by [`run`](Self::run); `1` forces the
    /// serial path.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs > 0, "job count must be at least 1");
        self.jobs = Some(jobs);
        self
    }

    /// The worker count [`run`](Self::run) will use.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(mapg_pool::default_jobs)
    }

    /// The suite being run.
    pub fn suite(&self) -> &WorkloadSuite {
        &self.suite
    }

    /// Runs all combinations, in parallel across [`jobs`](Self::jobs)
    /// workers.
    pub fn run(&self, policies: &[PolicyKind]) -> SuiteMatrix {
        let combos: Vec<(WorkloadProfile, PolicyKind)> = self
            .suite
            .iter()
            .flat_map(|profile| policies.iter().map(|&policy| (profile.clone(), policy)))
            .collect();
        let reports = Pool::new(self.jobs()).map(combos, |(profile, policy)| {
            let config = self.base.clone().with_profile(profile);
            Simulation::new(config, policy).run()
        });
        SuiteMatrix { reports }
    }
}

/// The (workload × policy) report matrix with comparison helpers.
#[derive(Debug, Clone)]
pub struct SuiteMatrix {
    reports: Vec<RunReport>,
}

impl SuiteMatrix {
    /// All reports, in (workload-major, policy-minor) order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The report for a (workload, policy) pair.
    pub fn get(&self, workload: &str, policy: &str) -> Option<&RunReport> {
        self.reports
            .iter()
            .find(|r| r.workload == workload && r.policy == policy)
    }

    /// Distinct workload names, in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.reports {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// Distinct policy names, in first-seen order.
    pub fn policies(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.reports {
            if !names.contains(&r.policy) {
                names.push(r.policy);
            }
        }
        names
    }

    /// Geometric-mean *normalized core energy* of `policy` relative to
    /// `baseline` across workloads (`0.82` = 18 % geomean savings).
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_energy(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.core_energy() / b.core_energy()
        }))
    }

    /// Geometric-mean normalized runtime of `policy` relative to
    /// `baseline` (`1.01` = 1 % geomean slowdown).
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_runtime(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.makespan_cycles as f64 / b.makespan_cycles as f64
        }))
    }

    /// Geometric-mean normalized EDP of `policy` relative to `baseline`.
    ///
    /// # Panics
    ///
    /// Panics if either policy is missing for some workload.
    pub fn geomean_normalized_edp(&self, policy: &str, baseline: &str) -> f64 {
        geometric_mean(self.workloads().iter().map(|w| {
            let p = self.get(w, policy).expect("policy report missing");
            let b = self.get(w, baseline).expect("baseline report missing");
            p.edp() / b.edp()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapg_trace::WorkloadSuite;

    fn tiny_runner() -> SuiteRunner {
        SuiteRunner::new(
            WorkloadSuite::extremes(),
            SimConfig::default().with_instructions(30_000),
        )
    }

    #[test]
    fn matrix_covers_all_combinations() {
        let matrix = tiny_runner().run(&[
            PolicyKind::NoGating,
            PolicyKind::Mapg,
            PolicyKind::MapgOracle,
        ]);
        assert_eq!(matrix.reports().len(), 6);
        assert_eq!(matrix.workloads().len(), 2);
        assert_eq!(matrix.policies().len(), 3);
        assert!(matrix.get("mem_bound", "mapg").is_some());
        assert!(matrix.get("mem_bound", "nonexistent").is_none());
    }

    #[test]
    fn geomeans_are_sensible() {
        let matrix = tiny_runner().run(&[PolicyKind::NoGating, PolicyKind::Mapg]);
        let energy = matrix.geomean_normalized_energy("mapg", "no-gating");
        let runtime = matrix.geomean_normalized_runtime("mapg", "no-gating");
        let edp = matrix.geomean_normalized_edp("mapg", "no-gating");
        assert!(energy < 1.0, "MAPG should save energy: {energy}");
        assert!(runtime < 1.10, "runtime should stay close: {runtime}");
        assert!(edp < 1.05, "EDP should not blow up: {edp}");
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let policies = [
            PolicyKind::NoGating,
            PolicyKind::Mapg,
            PolicyKind::NaiveOnMiss,
        ];
        let serial = tiny_runner().with_jobs(1).run(&policies);
        let parallel = tiny_runner().with_jobs(8).run(&policies);
        assert_eq!(serial.reports(), parallel.reports());
    }

    #[test]
    fn ambient_default_jobs_override_is_honoured() {
        let runner = tiny_runner();
        let pinned = mapg_pool::with_default_jobs(3, || runner.jobs());
        assert_eq!(pinned, 3);
        assert_eq!(runner.clone().with_jobs(5).jobs(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_jobs_rejected() {
        let _ = tiny_runner().with_jobs(0);
    }

    #[test]
    fn baseline_normalized_to_itself_is_unity() {
        let matrix = tiny_runner().run(&[PolicyKind::NoGating]);
        let unity = matrix.geomean_normalized_energy("no-gating", "no-gating");
        assert!((unity - 1.0).abs() < 1e-12);
    }
}
