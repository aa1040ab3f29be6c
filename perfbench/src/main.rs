//! The MAPG reproduction's benchmark: end-to-end metrics per workload, and
//! a separate traced run that splits the time across layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size paper|smoke] [--expected FILE] [--out DIR]
//! perfbench --record [--expected FILE]
//! ```
//!
//! Run it from the repository root (see `perfbench/README.md`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, which holds the end-to-end metrics with
//! `--trace 0` and the per-layer metrics with `--trace 1`. The full result,
//! with the host it ran on, goes to `DIR/<workload>-seed<N>-trace<T>.json`.

mod calibrate;
mod layers;
mod measure;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use calibrate::Calibration;
use layers::LayerCounts;
use measure::{json_num, json_str, median, peak_rss_mb, timed};
use spans::{self_times, Spans};
use workloads::{Expected, Outcome, Prepared, Size, Workload};

/// Expected outputs compiled in; `--expected FILE` replaces them.
const EXPECTED: &str = include_str!("../expected.txt");

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Failures printed to standard error; the result file holds them all.
const SHOWN_PROBLEMS: usize = 10;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--size paper|smoke] [--expected FILE] [--out DIR]\n       \
                     perfbench --record [--expected FILE]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    expected: Option<PathBuf>,
    out: PathBuf,
}

enum Mode {
    Run(Args),
    Record(Option<PathBuf>),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut expected, mut out, mut record) =
        (Size::Paper, None, PathBuf::from("perfbench/out"), false);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => size = Size::parse(&value).ok_or_else(|| bad("paper or smoke"))?,
            "--expected" => expected = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if record {
        return Ok(Mode::Record(expected));
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Mode::Run(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
        size,
        expected,
        out,
    }))
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One timed repetition of the operation, for the result file.
struct Iteration {
    wall_s: f64,
    cpu_s: f64,
}

/// What a run measured.
struct RunResult {
    outcome: Outcome,
    /// The metrics `BENCHMARK.json` declares for this mode.
    metrics: Vec<Metric>,
    /// Uncalibrated figures, for the printed report and the result file.
    raw: Vec<Metric>,
    iterations: Vec<Iteration>,
}

/// The median of one field over `runs`.
fn median_of(runs: &[Iteration], field: fn(&Iteration) -> f64) -> f64 {
    median(&runs.iter().map(field).collect::<Vec<f64>>())
}

/// The end-to-end run: repeat the workload's operation until the next
/// repetition would overrun `seconds` (always at least once), sampling the
/// host-speed calibration before every timed call and after the last (see
/// `calibrate.rs`), and report calibrated medians.
fn end_to_end(
    prepared: &Prepared,
    args: &Args,
    setup: &[Iteration],
    calibration: &mut Calibration,
) -> RunResult {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut rates = Vec::new();
    loop {
        let (mut wall_s, mut cpu_s, mut sim_cycles) = (0.0, 0.0, 0);
        for part in 0..prepared.parts() {
            calibration.sample();
            let (batch, wall, cpu) = timed(|| prepared.run_part(iterations.len(), part, None));
            wall_s += wall;
            cpu_s += cpu;
            sim_cycles += batch.sim_cycles;
            outcome.absorb(batch);
        }
        rates.push(sim_cycles as f64 / 1e6 / wall_s);
        iterations.push(Iteration { wall_s, cpu_s });
        if started.elapsed().as_secs_f64() + median_of(&iterations, |i| i.wall_s) > args.seconds {
            break;
        }
    }
    calibration.sample();
    let factor = calibration.factor();
    let wall_s = median_of(&iterations, |i| i.wall_s);
    let cpu_s = median_of(&iterations, |i| i.cpu_s);
    let (rate, setup_s) = (median(&rates), median_of(setup, |i| i.wall_s));
    RunResult {
        metrics: vec![
            metric("wall_s", "s", wall_s * factor),
            metric("sim_mcycles_per_s", "Mcycle/s", rate / factor),
            metric("cpu_s", "s", cpu_s * factor),
            metric("setup_s", "s", setup_s * factor),
            metric("peak_rss_mb", "MiB", peak_rss_mb()),
        ],
        raw: vec![
            metric("raw.wall_s", "s", wall_s),
            metric("raw.sim_mcycles_per_s", "Mcycle/s", rate),
            metric("raw.cpu_s", "s", cpu_s),
            metric("raw.setup_s", "s", setup_s),
            metric("calibration.factor", "ratio", factor),
        ],
        outcome,
        iterations,
    }
}

/// The traced run: the operation once without and once with spans (after
/// a warm-up run), the registry suite's spans, and the layer decomposition.
fn traced(prepared: &Prepared, expected: &Expected, spans: &Spans) -> RunResult {
    let mut outcome = Outcome::default();
    // A first, untimed run lets caches fill and lazy set-up finish, so the
    // traced-vs-untraced difference is not a cold-start difference.
    outcome.absorb(prepared.run(0, None));
    let (batch, untraced_s, untraced_cpu_s) = timed(|| prepared.run(0, None));
    outcome.absorb(batch);
    let (batch, traced_s, traced_cpu_s) =
        timed(|| spans.record("workload", None, |id| prepared.run(0, Some((spans, id)))));
    outcome.absorb(batch);
    if !prepared.workload.is_suite() {
        // The simulation workloads never reach the suite layer; time the
        // registry at smoke scale so its metrics still measure something.
        let suite = Prepared::new(Workload::PaperSuite, Size::Smoke, 0, expected);
        outcome.absorb(spans.record("suite.smoke", None, |id| suite.run(0, Some((spans, id)))));
    }
    let mut counts = LayerCounts::default();
    spans.record("decompose", None, |id| {
        for spec in prepared.decomposition() {
            layers::decompose(spans, id, &spec, &mut counts, &mut outcome);
        }
    });

    let c = &counts;
    let total = |piece: &str| c.seconds(piece);
    let controller_self_s = total("controller.replay") - total("cpu.substrate");
    let mut metrics = vec![
        metric("trace.gen_s", "s", total("trace.gen")),
        metric(
            "trace.gen_ns_per_event",
            "ns",
            ratio(total("trace.gen") * 1e9, c.trace_events as f64),
        ),
        metric("trace.events", "count", c.trace_events as f64),
        metric("cpu.substrate_s", "s", total("cpu.substrate")),
        metric(
            "cpu.ns_per_event",
            "ns",
            ratio(total("cpu.substrate") * 1e9, c.trace_events as f64),
        ),
        metric("cpu.instructions", "count", c.cpu_instructions as f64),
        metric("cpu.stalls", "count", c.cpu_stalls as f64),
        metric(
            "cpu.stall_cycle_frac",
            "frac",
            ratio(c.cpu_stall_cycles as f64, c.cpu_cycles as f64),
        ),
        metric(
            "mem.access_ns",
            "ns",
            ratio(total("mem.access") * 1e9, c.mem_isolated_accesses as f64),
        ),
        metric(
            "mem.l1_miss_rate",
            "frac",
            ratio(c.l1_misses as f64, c.l1_accesses as f64),
        ),
        metric(
            "mem.l2_miss_rate",
            "frac",
            ratio(c.l2_misses as f64, c.l2_accesses as f64),
        ),
        metric(
            "mem.dram_row_hit_rate",
            "frac",
            ratio(c.dram_row_hits as f64, c.dram_accesses as f64),
        ),
        metric("mem.dram_accesses", "count", c.dram_accesses as f64),
        metric("mem.mshr_stalls", "count", c.mshr_stalls as f64),
        metric("controller.self_s", "s", controller_self_s),
        metric(
            "controller.ns_per_stall",
            "ns",
            ratio(controller_self_s * 1e9, c.controller_stalls as f64),
        ),
        metric("controller.stalls", "count", c.controller_stalls as f64),
        metric(
            "controller.gated_frac",
            "frac",
            ratio(c.controller_gated as f64, c.controller_stalls as f64),
        ),
        metric("controller.regates", "count", c.controller_regates as f64),
        metric(
            "predictor.within25_frac",
            "frac",
            ratio(c.predictions_within25, c.predictions),
        ),
        metric("tokens.peak_concurrency", "count", c.tokens_peak as f64),
        metric(
            "obs.emit_s",
            "s",
            total("obs.replay") - total("controller.replay"),
        ),
        metric("obs.collect_s", "s", total("obs.collect")),
        metric("obs.export_s", "s", total("obs.export")),
        metric("obs.records", "count", c.obs_records as f64),
        metric(
            "obs.kept_frac",
            "frac",
            ratio(c.obs_kept as f64, c.obs_records as f64),
        ),
        metric("obs.trace_bytes", "bytes", c.obs_trace_bytes as f64),
        metric(
            "obs.overhead_ratio",
            "ratio",
            ratio(total("sim.observed"), total("sim.live")),
        ),
    ];
    for experiment in mapg_bench::experiments::all() {
        let name = format!("bench.exp.{}", experiment.id);
        metrics.push(metric(format!("{name}_s"), "s", spans.total_s(&name)));
    }
    metrics.push(metric("bench.render_s", "s", spans.total_s("bench.render")));
    let jobs = prepared.jobs() as f64;
    metrics.push(metric(
        "pool.parallelism",
        "ratio",
        ratio(traced_cpu_s, traced_s),
    ));
    metrics.push(metric(
        "pool.idle_frac",
        "frac",
        1.0 - ratio(traced_cpu_s, jobs * traced_s),
    ));
    metrics.push(metric(
        "tracing.overhead_frac",
        "frac",
        ratio(traced_s - untraced_s, untraced_s),
    ));
    RunResult {
        outcome,
        metrics,
        raw: Vec::new(),
        iterations: vec![
            Iteration {
                wall_s: untraced_s,
                cpu_s: untraced_cpu_s,
            },
            Iteration {
                wall_s: traced_s,
                cpu_s: traced_cpu_s,
            },
        ],
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn spans_json(spans: &Spans) -> String {
    let recorded = spans.snapshot();
    let self_s = self_times(&recorded);
    let rows: Vec<String> = recorded
        .iter()
        .zip(self_s)
        .enumerate()
        .map(|(id, (span, self_s))| {
            format!(
                "  {{\"id\": {id}, \"name\": {}, \"parent\": {}, \"start_s\": {}, \
                 \"end_s\": {}, \"self_s\": {}}}",
                json_str(&span.name),
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                json_num(span.start_s),
                json_num(span.end_s),
                json_num(self_s)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn run(args: &Args) -> Result<bool, String> {
    let expected_text = match &args.expected {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => EXPECTED.to_owned(),
    };

    // Set-up: everything the first timed call needs, built several times.
    // Each set-up ends with one smoke-size run of the operation, so caches
    // fill and lazy initialisation finishes before timing starts, and work
    // a change moves out of the timed section shows up here.
    let mut calibration = (!args.trace).then(Calibration::new);
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut warm_up = Outcome::default();
    let mut prepared = None;
    let mut expected = Expected::default();
    for repeat in 0..SETUP_REPEATS {
        let set_up = || -> Result<_, String> {
            let expected = Expected::parse(&expected_text)?;
            let prepared = Prepared::new(args.workload, args.size, args.seed, &expected);
            let smoke = Prepared::new(args.workload, Size::Smoke, args.seed, &expected);
            let outcome = smoke.run(repeat, None);
            Ok((expected, prepared, outcome))
        };
        if let Some(calibration) = calibration.as_mut() {
            calibration.sample();
        }
        let (result, wall_s, cpu_s) = timed(set_up);
        let (parsed, built, outcome) = result?;
        (expected, prepared) = (parsed, Some(built));
        warm_up.absorb(outcome);
        setup.push(Iteration { wall_s, cpu_s });
    }
    let prepared = prepared.expect("at least one set-up");

    let spans = Spans::new();
    let RunResult {
        mut outcome,
        metrics,
        raw,
        iterations,
    } = match calibration.as_mut() {
        None => traced(&prepared, &expected, &spans),
        Some(calibration) => end_to_end(&prepared, args, &setup, calibration),
    };
    outcome.absorb(warm_up);
    if let Some(calibration) = &calibration {
        let recorded = expected.get(args.size, "calibration", "makespan");
        if let Err(problem) = calibration.check(recorded) {
            outcome.problems.push(problem);
        }
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let failed_frac = ratio(outcome.failed as f64, outcome.attempted as f64);

    println!(
        "{} (seed {}, {} size, {} iteration(s), jobs {})",
        args.workload.name(),
        args.seed,
        args.size.name(),
        iterations.len(),
        prepared.jobs()
    );
    for m in metrics.iter().chain(&raw) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16.6} frac ({} of {} operations failed)",
        "failed_frac", failed_frac, outcome.failed, outcome.attempted
    );
    for problem in outcome.problems.iter().take(SHOWN_PROBLEMS) {
        eprintln!("FAILED {problem}");
    }
    if outcome.problems.len() > SHOWN_PROBLEMS {
        eprintln!(
            "FAILED ... and {} more (all in the result file)",
            outcome.problems.len() - SHOWN_PROBLEMS
        );
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let iterations_json = |runs: &[Iteration]| {
        let rows: Vec<String> = runs
            .iter()
            .map(|i| {
                format!(
                    "{{\"wall_s\": {}, \"cpu_s\": {}}}",
                    json_num(i.wall_s),
                    json_num(i.cpu_s)
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    };
    let problems_json: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    let calibration_json: Vec<String> = calibration
        .as_ref()
        .map_or(&[][..], |c| c.times())
        .iter()
        .map(|t| json_num(*t))
        .collect();
    let calibration_json = format!("[{}]", calibration_json.join(", "));
    let record = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"size\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"jobs\": {},\n  \"host\": {},\n  \"correct\": {correct},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n  \
         \"setup\": {},\n  \"calibration_s\": {},\n  \"iterations\": {},\n  \
         \"problems\": [{}],\n  \"metrics\": {},\n  \"raw\": {}\n}}\n",
        json_str(args.workload.name()),
        args.seed,
        json_str(args.size.name()),
        json_num(args.seconds),
        args.trace,
        prepared.jobs(),
        measure::host_json(),
        outcome.attempted,
        outcome.failed,
        json_num(failed_frac),
        iterations_json(&setup),
        calibration_json,
        iterations_json(&iterations),
        problems_json.join(", "),
        metrics_json(&metrics),
        metrics_json(&raw),
    );
    let write = |name: String, text: String| {
        let path = args.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), record)?;
    if args.trace {
        write(format!("{stem}.spans.json"), spans_json(&spans))?;
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}

fn record(path: Option<PathBuf>) -> Result<(), String> {
    let path =
        path.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.txt"));
    let mut text = String::from(
        "# Expected outputs of every workload, regenerated with `perfbench --record`.\n\
         # <size> <group> <key> <value>: fnv1a64 digests of each experiment's rendered\n\
         # CSV and of each simulation input's RunReport (trace and metrics excluded),\n\
         # the suite's simulated core-cycles and the calibration's makespan.\n",
    );
    for size in [Size::Paper, Size::Smoke] {
        eprintln!("recording {} size ...", size.name());
        text += &workloads::record(size)?;
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Mode::Run(args)) => run(&args).map(|correct| {
            if !correct {
                eprintln!("perfbench: outputs are NOT correct (see FAILED lines)");
            }
        }),
        Ok(Mode::Record(path)) => record(path),
        Err(error) => Err(format!("{error}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}
