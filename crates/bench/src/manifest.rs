//! Machine-readable run records for the `experiments` binary.
//!
//! `experiments --manifest out.json` emits one [`Manifest`] per run so the
//! bench trajectory (per-experiment wall time, table sizes, job count)
//! accumulates across CI runs and PRs. The document is built as a
//! [`JsonValue`] tree and rendered by [`json::write_pretty`], with a
//! flat, stable schema:
//!
//! ```json
//! {
//!   "schema": 4,
//!   "scale": "smoke",
//!   "jobs": 4,
//!   "total_wall_ms": 123.456,
//!   "fuzz": {
//!     "seed": 1,
//!     "scenarios": 200,
//!     "executed": 200,
//!     "findings": [
//!       {
//!         "scenario": 1928,
//!         "class": "panic",
//!         "shrink_steps": 4
//!       }
//!     ]
//!   },
//!   "experiments": [
//!     {
//!       "id": "R-T1",
//!       "title": "power-gating circuit design space",
//!       "outcome": "ok",
//!       "attempts": 1,
//!       "wall_ms": 1.234,
//!       "metrics": {
//!         "counters": {
//!           "gates": 42
//!         },
//!         "histograms": {}
//!       },
//!       "tables": [
//!         {
//!           "id": "R-T1",
//!           "rows": 7
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Schema history: v2 added the optional per-experiment `"metrics"`
//! object (aggregated observability counters and histograms); v3 added
//! the optional top-level `"fuzz"` object (differential-fuzz campaign
//! provenance: campaign seed, scenario count, and one
//! `{scenario, class, shrink_steps}` record per divergence), written by
//! `mapg-fuzz --manifest`; v4 added per-entry supervision fields
//! (`"outcome"`: `ok`/`panicked`/`timed-out`/`cancelled`, and
//! `"attempts"`) plus `"executed"` under `"fuzz"` (scenarios actually
//! run, which a `--max-seconds` budget can cap below `"scenarios"`).
//! Journaled (checkpoint/resume) runs zero every wall-time field so the
//! manifest is byte-identical between an uninterrupted run and a
//! kill-and-resume run; real wall times live in the journal.

use mapg_obs::json::{self, JsonValue};
use mapg_obs::MetricsRegistry;

use crate::fuzz::CampaignReport;
use crate::scale::Scale;
use crate::table::Table;

/// Schema version stamped into every manifest.
pub const MANIFEST_SCHEMA: u32 = 4;

/// Row counts of one rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSummary {
    /// Table id (e.g. `R-T1`).
    pub id: String,
    /// Number of data rows.
    pub rows: usize,
}

impl TableSummary {
    /// Summarizes a rendered table.
    pub fn of(table: &Table) -> Self {
        TableSummary {
            id: table.id().to_owned(),
            rows: table.rows().len(),
        }
    }
}

/// The record of one experiment within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment id (e.g. `R-F5`).
    pub id: String,
    /// One-line experiment title.
    pub title: String,
    /// Supervision outcome: `ok`, `panicked`, `timed-out`, or
    /// `cancelled` (schema v4).
    pub outcome: String,
    /// Attempts the supervised run took (1 = no retry; schema v4).
    pub attempts: u32,
    /// Wall time of the experiment's `run` call, in milliseconds
    /// (zeroed in journaled runs for byte-stable resume).
    pub wall_ms: f64,
    /// Aggregated observability metrics across the experiment's
    /// simulations, when the run collected them.
    pub metrics: Option<MetricsRegistry>,
    /// Summaries of the tables the experiment produced.
    pub tables: Vec<TableSummary>,
}

/// One divergence of a fuzz campaign, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFindingSummary {
    /// Index of the diverging scenario within the campaign.
    pub scenario: u64,
    /// Finding class tag (e.g. `"panic"`, `"stats-mismatch"`).
    pub class: String,
    /// Shrink passes that were applied before the repro was written.
    pub shrink_steps: u64,
}

/// Provenance of a differential-fuzz campaign (schema v3).
///
/// Everything needed to regenerate the campaign — and to locate each
/// divergence inside it — without the repro files themselves: re-running
/// `mapg-fuzz --seed <seed> --scenarios <scenarios>` reproduces every
/// listed finding bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProvenance {
    /// Seed the scenario stream was generated from.
    pub seed: u64,
    /// Scenarios the campaign was asked for.
    pub scenarios: u64,
    /// Scenarios actually executed (a `--max-seconds` wall-clock budget
    /// can stop the campaign short of `scenarios`; schema v4).
    pub executed: u64,
    /// Divergences, in scenario-index order (empty for a clean campaign).
    pub findings: Vec<FuzzFindingSummary>,
}

impl FuzzProvenance {
    /// Summarizes a finished campaign.
    pub fn of(report: &CampaignReport) -> Self {
        FuzzProvenance {
            seed: report.seed,
            scenarios: report.scenarios,
            executed: report.executed,
            findings: report
                .findings
                .iter()
                .map(|f| FuzzFindingSummary {
                    scenario: f.index,
                    class: f.outcome.finding.class.tag().to_owned(),
                    shrink_steps: f.outcome.steps,
                })
                .collect(),
        }
    }
}

/// A machine-readable record of one `experiments` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scale the run used.
    pub scale: Scale,
    /// Job count the run used (`--jobs`).
    pub jobs: usize,
    /// Wall time of the whole run, in milliseconds.
    pub total_wall_ms: f64,
    /// Fuzz-campaign provenance, when the run was an `mapg-fuzz`
    /// campaign. Campaign manifests carry no experiments and tag the
    /// `smoke` scale (the scale knob is an instruction budget, which
    /// randomized scenarios override); the authoritative campaign size
    /// is `fuzz.scenarios`.
    pub fuzz: Option<FuzzProvenance>,
    /// Per-experiment records, in registry order.
    pub experiments: Vec<ManifestEntry>,
}

impl Manifest {
    /// Renders the manifest as pretty-printed JSON (trailing newline
    /// included).
    pub fn to_json(&self) -> String {
        let mut doc = vec![
            ("schema", MANIFEST_SCHEMA.into()),
            ("scale", self.scale.name().into()),
            ("jobs", self.jobs.into()),
            ("total_wall_ms", json::fixed(self.total_wall_ms, 3)),
        ];
        if let Some(fuzz) = &self.fuzz {
            let findings = fuzz.findings.iter().map(|finding| {
                JsonValue::object([
                    ("scenario", finding.scenario.into()),
                    ("class", finding.class.as_str().into()),
                    ("shrink_steps", finding.shrink_steps.into()),
                ])
            });
            doc.push((
                "fuzz",
                JsonValue::object([
                    ("seed", fuzz.seed.into()),
                    ("scenarios", fuzz.scenarios.into()),
                    ("executed", fuzz.executed.into()),
                    ("findings", JsonValue::Array(findings.collect())),
                ]),
            ));
        }
        let experiments = self.experiments.iter().map(|entry| {
            let mut fields = vec![
                ("id", entry.id.as_str().into()),
                ("title", entry.title.as_str().into()),
                ("outcome", entry.outcome.as_str().into()),
                ("attempts", entry.attempts.into()),
                ("wall_ms", json::fixed(entry.wall_ms, 3)),
            ];
            if let Some(metrics) = &entry.metrics {
                fields.push(("metrics", metrics.to_json_value()));
            }
            let tables = entry.tables.iter().map(|table| {
                JsonValue::object([
                    ("id", table.id.as_str().into()),
                    ("rows", table.rows.into()),
                ])
            });
            fields.push(("tables", JsonValue::Array(tables.collect())));
            JsonValue::object(fields)
        });
        doc.push(("experiments", JsonValue::Array(experiments.collect())));
        json::write_pretty(&JsonValue::object(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            scale: Scale::Smoke,
            jobs: 4,
            total_wall_ms: 12.3456,
            fuzz: None,
            experiments: vec![
                ManifestEntry {
                    id: "R-T1".to_owned(),
                    title: "power-gating circuit design space".to_owned(),
                    outcome: "ok".to_owned(),
                    attempts: 1,
                    wall_ms: 1.5,
                    metrics: None,
                    tables: vec![TableSummary {
                        id: "R-T1".to_owned(),
                        rows: 7,
                    }],
                },
                ManifestEntry {
                    id: "R-F5".to_owned(),
                    title: "wake \"latency\" sweep".to_owned(),
                    outcome: "timed-out".to_owned(),
                    attempts: 3,
                    wall_ms: 2.25,
                    metrics: None,
                    tables: vec![
                        TableSummary {
                            id: "R-F5".to_owned(),
                            rows: 6,
                        },
                        TableSummary {
                            id: "R-F5b".to_owned(),
                            rows: 2,
                        },
                    ],
                },
            ],
        }
    }

    fn parsed(manifest: &Manifest) -> JsonValue {
        json::parse(&manifest.to_json()).expect("manifest is valid JSON")
    }

    fn raw(value: Option<&JsonValue>) -> &str {
        match value {
            Some(JsonValue::Number(raw)) => raw,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn items(value: Option<&JsonValue>) -> &[JsonValue] {
        match value {
            Some(JsonValue::Array(items)) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn renders_the_documented_schema() {
        let json = sample().to_json();
        assert!(json.ends_with("}\n"), "{json}");
        let doc = parsed(&sample());
        assert_eq!(doc.get("schema").and_then(JsonValue::as_u32), Some(4));
        assert_eq!(doc.get("scale").and_then(JsonValue::as_str), Some("smoke"));
        assert_eq!(doc.get("jobs").and_then(JsonValue::as_usize), Some(4));
        assert_eq!(raw(doc.get("total_wall_ms")), "12.346");
        let entries = items(doc.get("experiments"));
        assert_eq!(
            entries[0].get("id").and_then(JsonValue::as_str),
            Some("R-T1")
        );
        assert_eq!(
            entries[0].get("outcome").and_then(JsonValue::as_str),
            Some("ok")
        );
        assert_eq!(
            entries[1].get("outcome").and_then(JsonValue::as_str),
            Some("timed-out")
        );
        assert_eq!(
            entries[0].get("attempts").and_then(JsonValue::as_u32),
            Some(1)
        );
        assert_eq!(
            entries[1].get("attempts").and_then(JsonValue::as_u32),
            Some(3)
        );
        let tables = items(entries[1].get("tables"));
        assert_eq!(
            tables[1],
            JsonValue::object([("id", "R-F5b".into()), ("rows", 2u64.into())])
        );
    }

    #[test]
    fn strings_are_escaped() {
        let json = sample().to_json();
        assert!(json.contains(r#""wake \"latency\" sweep""#), "{json}");
        let doc = parsed(&sample());
        let title = items(doc.get("experiments"))[1].get("title");
        assert_eq!(
            title.and_then(JsonValue::as_str),
            Some("wake \"latency\" sweep")
        );
        assert_eq!(
            json::render_string("a\\b\nc\t\u{1}"),
            "\"a\\\\b\\nc\\t\\u0001\""
        );
    }

    #[test]
    fn empty_run_is_valid_json() {
        let manifest = Manifest {
            scale: Scale::Paper,
            jobs: 1,
            total_wall_ms: 0.0,
            fuzz: None,
            experiments: Vec::new(),
        };
        assert!(manifest.to_json().contains("\"experiments\": []"));
        assert!(items(parsed(&manifest).get("experiments")).is_empty());
    }

    /// Schema v3: fuzz provenance renders under `"fuzz"` with one record
    /// per divergence; manifests without a campaign omit the key.
    #[test]
    fn fuzz_provenance_embeds_under_the_manifest() {
        assert!(parsed(&sample()).get("fuzz").is_none());
        let mut manifest = sample();
        manifest.experiments.clear();
        manifest.fuzz = Some(FuzzProvenance {
            seed: 1,
            scenarios: 2000,
            executed: 1500,
            findings: vec![
                FuzzFindingSummary {
                    scenario: 1928,
                    class: "panic".to_owned(),
                    shrink_steps: 4,
                },
                FuzzFindingSummary {
                    scenario: 42,
                    class: "stats-mismatch".to_owned(),
                    shrink_steps: 0,
                },
            ],
        });
        let doc = parsed(&manifest);
        let fuzz = doc.get("fuzz").expect("fuzz provenance");
        assert_eq!(fuzz.get("seed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            fuzz.get("scenarios").and_then(JsonValue::as_u64),
            Some(2000)
        );
        assert_eq!(fuzz.get("executed").and_then(JsonValue::as_u64), Some(1500));
        let findings = items(fuzz.get("findings"));
        assert_eq!(
            findings[0],
            JsonValue::object([
                ("scenario", 1928u64.into()),
                ("class", "panic".into()),
                ("shrink_steps", 4u64.into()),
            ])
        );
        assert_eq!(
            findings[1].get("class").and_then(JsonValue::as_str),
            Some("stats-mismatch")
        );

        // A clean campaign still records its provenance.
        manifest.fuzz.as_mut().unwrap().findings.clear();
        let json = manifest.to_json();
        assert!(json.contains("\"findings\": []"), "{json}");
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        let mut manifest = sample();
        for (wall, rendered) in [(f64::NAN, "0"), (f64::INFINITY, "0"), (0.5, "0.500")] {
            manifest.total_wall_ms = wall;
            assert_eq!(raw(parsed(&manifest).get("total_wall_ms")), rendered);
        }
    }

    #[test]
    fn metrics_embed_under_the_entry() {
        let mut manifest = sample();
        let mut registry = MetricsRegistry::new();
        registry.count(mapg_obs::Metric::Gates, 42);
        registry.observe(mapg_obs::Metric::GatedDuration, 512);
        manifest.experiments[0].metrics = Some(registry.clone());
        let doc = parsed(&manifest);
        let entries = items(doc.get("experiments"));
        let metrics = entries[0].get("metrics").expect("metrics object");
        assert_eq!(metrics, &registry.to_json_value());
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("gates")
                .and_then(JsonValue::as_u64),
            Some(42)
        );
        assert!(metrics
            .get("histograms")
            .unwrap()
            .get("gated_duration")
            .is_some());
        // The entry without metrics stays metrics-free.
        assert!(entries[1].get("metrics").is_none());
    }

    #[test]
    fn table_summary_counts_rows() {
        let mut t = Table::new("R-X", "x", vec!["a"]);
        t.push_row(vec!["1"]);
        t.push_row(vec!["2"]);
        let s = TableSummary::of(&t);
        assert_eq!(s.id, "R-X");
        assert_eq!(s.rows, 2);
    }
}
