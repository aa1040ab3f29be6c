//! Golden-table regression suite.
//!
//! Every registered experiment is rendered at smoke scale exactly the way
//! `experiments --csv` renders it, and compared byte-for-byte against the
//! checked-in golden copy under `tests/golden/`. Any behavioural change to
//! the simulator — policy, substrate, fault model — shows up here as a
//! diff that has to be inspected and re-blessed.
//!
//! To regenerate after an intentional change (see DESIGN.md §8):
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -p mapg-bench --test golden
//! ```

#![deny(unused)]

use std::fmt::Write as _;
use std::path::PathBuf;

use mapg::{FaultPlan, PolicyKind, PredictorKind, SimConfig, Simulation};
use mapg_bench::experiments::{self, Experiment};
use mapg_bench::{fnv1a64, Scale};
use mapg_trace::WorkloadProfile;

/// The controller-event golden, beside the per-experiment tables.
const CONTROLLER_EVENTS: &str = "controller-events.txt";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Renders one experiment exactly as `experiments --csv --scale smoke`
/// prints it (per-table header line + CSV body).
fn render(experiment: &Experiment) -> String {
    let tables = (experiment.run)(Scale::Smoke);
    let mut out = String::new();
    for table in &tables {
        writeln!(out, "# {} — {}", table.id(), table.title()).expect("string write");
        out.push_str(&table.to_csv());
    }
    out
}

/// First line where two renderings differ, with both versions.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}: expected `{e}`, got `{a}`", i + 1);
        }
    }
    format!(
        "line counts differ: expected {}, got {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn every_experiment_matches_its_golden_table() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let all = experiments::all();
    assert_eq!(all.len(), 20, "registry size changed; update this suite");

    // Render in parallel (bit-identical at any job count — see the
    // parallel-determinism suite); compare serially for readable failures.
    let rendered = mapg_pool::Pool::new(mapg_pool::default_jobs())
        .map(all, |experiment| (experiment, render(&experiment)));

    let mut problems = Vec::new();
    for (experiment, actual) in rendered {
        let path = golden_dir().join(format!("{}.csv", experiment.id.to_lowercase()));
        if update {
            std::fs::write(&path, &actual)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => problems.push(format!(
                "{}: output drifted from {} — {}",
                experiment.id,
                path.display(),
                first_diff(&expected, &actual)
            )),
            Err(e) => problems.push(format!(
                "{}: cannot read {} ({e})",
                experiment.id,
                path.display()
            )),
        }
    }
    assert!(
        problems.is_empty(),
        "golden tables out of sync (re-bless with \
         `UPDATE_GOLDEN=1 cargo test -p mapg-bench --test golden` \
         after verifying the change is intentional):\n{}",
        problems.join("\n")
    );
}

/// Every distinct policy: the nine fixed kinds and MAPG under each
/// predictor.
fn every_policy_kind() -> Vec<PolicyKind> {
    let mut kinds = vec![
        PolicyKind::NoGating,
        PolicyKind::ClockGating,
        PolicyKind::DvfsStall,
        PolicyKind::NaiveOnMiss,
        PolicyKind::Timeout { idle_cycles: 100 },
        PolicyKind::MapgOracle,
        PolicyKind::Mapg,
        PolicyKind::MapgAlwaysGate,
        PolicyKind::MapgNoEarlyWake,
    ];
    kinds.extend(
        PredictorKind::ALL
            .into_iter()
            .map(|predictor| PolicyKind::MapgWith { predictor }),
    );
    kinds
}

/// One line per (policy, environment) run: the headline counters plus
/// FNV-1a digests of the report's `Debug` rendering (trace and metrics
/// taken out, so every f64 ledger bit counts), the Chrome trace and the
/// metrics JSON.
fn render_controller_events() -> String {
    let mut out = String::new();
    for kind in every_policy_kind() {
        for heavy in [false, true] {
            let config = SimConfig::default()
                .with_workload_mix(vec![
                    WorkloadProfile::mem_bound("mem_bound"),
                    WorkloadProfile::mixed("mixed"),
                    WorkloadProfile::compute_bound("compute_bound"),
                    WorkloadProfile::mixed("mixed"),
                ])
                .with_instructions(30_000)
                .with_tokens(1)
                .with_trace()
                .with_metrics();
            let config = if heavy {
                config
                    .with_fault_plan(FaultPlan::heavy())
                    .with_safe_mode_default()
            } else {
                config
            };
            let mut report = Simulation::new(config, kind).run();
            let trace = report.trace.take().expect("trace requested");
            let metrics = report.metrics.take().expect("metrics requested");
            writeln!(
                out,
                "{} {} stalls={} gated={} regates={} token_delayed={} \
                 brownout_delayed_wakes={} dropped_grants={} report={:016x} \
                 trace={:016x} metrics={:016x}",
                kind.name(),
                if heavy { "heavy" } else { "clean" },
                report.gating.stalls,
                report.gating.gated,
                report.gating.regates,
                report.gating.token_delayed,
                report.faults.brownout_delayed_wakes,
                report.faults.dropped_grants,
                fnv1a64(format!("{report:?}").as_bytes()),
                fnv1a64(trace.to_chrome_trace().as_bytes()),
                fnv1a64(metrics.to_json().as_bytes()),
            )
            .expect("string write");
        }
    }
    out
}

/// Pins the gating controller's full event stream: the table goldens round
/// every value, so a reordered f64 charge or a moved trace event would
/// otherwise pass unseen.
#[test]
fn controller_event_stream_matches_its_golden() {
    let actual = render_controller_events();
    let path = golden_dir().join(CONTROLLER_EVENTS);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    assert!(
        expected == actual,
        "controller event stream drifted from {} — {}",
        path.display(),
        first_diff(&expected, &actual)
    );
}

#[test]
fn golden_directory_has_no_strays() {
    let mut known: Vec<String> = experiments::all()
        .iter()
        .map(|e| format!("{}.csv", e.id.to_lowercase()))
        .collect();
    known.push(CONTROLLER_EVENTS.to_owned());
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            known.contains(&name),
            "stray golden file '{name}' matches no registered experiment"
        );
    }
}
