//! `agsbench`: the AGS benchmark.
//!
//! ```text
//! agsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! Runs one workload against the library crates' public entry points for
//! `--seconds`, checks its outputs, and prints its metrics by name and
//! unit. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! holding the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a traced run. `--repeat N` is the steadiness mode: it runs
//! the workload N times on consecutive seeds and reports each metric's
//! median and quartiles against its bound in `BENCHMARK.json`.
//! See `agsbench/README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]

mod campaign;
mod host;
mod layers;
mod schedule;
mod serve;
mod spans;
mod stats;

use ags::fleet::{FleetEngine, FleetReport, FleetSpec};
use ags::obs::trace::{self, TraceEvent};
use ags::sim::SolveCache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// The seed used when `--seed` is not given; the campaign digests are
/// recorded for it.
pub const DEFAULT_SEED: u64 = 42;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sweep-journaled", "fleet-diurnal", "serve-mixed"];

/// End-to-end metrics every workload reports, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("result_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("restart_s", "s"),
];

/// Per-layer metrics of the traced run, with units. A layer the
/// workload does not enter reads 0. `e2e.result_tail_ms` is the
/// end-to-end tail, reported here because run-to-run it moves with host
/// stalls by more than any bound could allow.
const PER_LAYER: [(&str, &str); 49] = [
    ("e2e.result_tail_ms", "ms"),
    ("sim.tick.us", "us"),
    ("sim.tick.count", "count"),
    ("sim.point.us", "us"),
    ("sim.solve.us", "us"),
    ("sim.solve.iters_mean", "iters"),
    ("sim.solve.lane_occupancy", "lanes"),
    ("sim.cache.hits", "count"),
    ("sim.cache.misses", "count"),
    ("sim.cache.lookups", "count"),
    ("sim.cache.hit_ratio", "ratio"),
    ("sim.cache.probe_us", "us"),
    ("sim.journal.segments", "count"),
    ("sim.journal.bytes", "bytes"),
    ("sim.journal.append_ms.p50", "ms"),
    ("sim.journal.append_ms.p99", "ms"),
    ("sim.sweep.chunk_wait_s", "s"),
    ("sim.render.ms", "ms"),
    ("fleet.shards", "count"),
    ("fleet.shards_stolen", "count"),
    ("fleet.server_epochs", "count"),
    ("fleet.idle_server_epochs", "count"),
    ("fleet.group_lanes_mean", "lanes"),
    ("fleet.offered_threads.ns", "ns"),
    ("fleet.table.ms", "ms"),
    ("core.place.ms", "ms"),
    ("serve.http.parse_us", "us"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_p99_ms", "ms"),
    ("serve.status_p99_ms", "ms"),
    ("serve.accept_wait_ms.p50", "ms"),
    ("serve.accept_wait_ms.p99", "ms"),
    ("serve.task.submit_ms", "ms"),
    ("serve.task.transition_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.batch_width_mean", "tasks"),
    ("serve.batches", "count"),
    ("serve.journal_files", "count"),
    ("serve.journal_bytes", "bytes"),
    ("serve.sheds", "count"),
    ("serve.retries", "count"),
    ("serve.polls_per_task", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_dropped", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.failed_frac", "ratio"),
    ("bench.output_mismatches", "count"),
];

/// What a run measured.
#[derive(Default)]
pub struct Metrics {
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    /// Operations attempted (campaign runs, tasks, daemon lifecycles).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Outputs that differed from their reference.
    pub mismatches: u64,
    /// Spans lost to ring wrap-around in the traced run.
    pub dropped_spans: u64,
    /// Self-time rows of the traced run.
    pub trace_rows: BTreeMap<&'static str, spans::LayerRow>,
    /// Spans of the traced run, for the Chrome trace.
    pub trace_events: Vec<TraceEvent>,
    /// The workload's fleet report, when it ran one.
    pub fleet_report: Option<FleetReport>,
}

impl Metrics {
    /// Records an end-to-end metric (its unit is in [`END_TO_END`]).
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_owned(), value);
    }

    /// Records a per-layer metric (its unit is in [`PER_LAYER`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// Records the simulator and fleet layer metrics read from a metrics
    /// registry exposition covering `runs` campaigns (counts are per run).
    pub fn registry_layers(&mut self, registry: &BTreeMap<String, f64>, runs: f64) {
        let get = |k: &str| registry.get(k).copied().unwrap_or(0.0);
        let per_run = |k: &str| get(k) / runs;
        let mean = |family: &str| {
            let count = get(&format!("{family}_count"));
            if count > 0.0 {
                get(&format!("{family}_sum")) / count
            } else {
                0.0
            }
        };
        let hits = per_run("ags_solve_cache_hits_total");
        let misses = per_run("ags_solve_cache_misses_total");
        self.layer("sim.tick.count", per_run("ags_sim_ticks_total"));
        self.layer("sim.solve.iters_mean", mean("ags_solve_iterations"));
        self.layer(
            "sim.solve.lane_occupancy",
            mean("ags_solve_batch_occupancy"),
        );
        self.layer("sim.cache.hits", hits);
        self.layer("sim.cache.misses", misses);
        self.layer("sim.cache.lookups", hits + misses);
        if hits + misses > 0.0 {
            self.layer("sim.cache.hit_ratio", hits / (hits + misses));
        }
        self.layer(
            "sim.sweep.chunk_wait_s",
            per_run("ags_sweep_chunk_wait_seconds_sum"),
        );
        self.layer("fleet.shards", per_run("ags_fleet_shards_claimed_total"));
        self.layer(
            "fleet.shards_stolen",
            per_run("ags_fleet_shards_stolen_total"),
        );
        self.layer(
            "fleet.server_epochs",
            per_run("ags_fleet_server_epochs_total"),
        );
        self.layer(
            "fleet.idle_server_epochs",
            per_run("ags_fleet_idle_server_epochs_total"),
        );
        self.layer("fleet.group_lanes_mean", mean("ags_fleet_group_lanes"));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        repeat: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--repeat" => args.repeat = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        let flag = |name: &str| {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .cloned()
        };
        let Some(journal) = flag("--journal") else {
            eprintln!("error: daemon needs --journal DIR");
            return ExitCode::from(2);
        };
        let addr = flag("--addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
        let jobs = flag("--jobs").and_then(|j| j.parse().ok()).unwrap_or(0);
        return serve::daemon_main(&journal, &addr, jobs);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return steadiness(&args);
    }
    let work = PathBuf::from(".agsbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    println!(
        "agsbench {} seed {} seconds {} trace {} host {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint_json()
    );
    let mut out = Metrics::default();
    host::settle_disk();
    match args.workload.as_str() {
        "sweep-journaled" => campaign::run(
            campaign::Kind::Sweep,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut out,
        ),
        "fleet-diurnal" => campaign::run(
            campaign::Kind::Fleet,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut out,
        ),
        _ => serve::run(args.seed, args.seconds, args.trace, &work, &mut out),
    }
    if args.trace {
        finish_traced(&args, &work, &mut out);
    }
    let _ = std::fs::remove_dir_all(&work);
    print_result(&args, &out);
    ExitCode::SUCCESS
}

/// The traced run's tail: layer probes, the self-time table and the
/// Chrome trace.
fn finish_traced(args: &Args, work: &Path, out: &mut Metrics) {
    // The table probe renders the workload's own fleet when it ran one.
    let fleet = out.fleet_report.take().unwrap_or_else(|| {
        let spec = FleetSpec::power7plus()
            .with_scale(64, 24)
            .with_seed(args.seed);
        FleetEngine::with_cache(1, Arc::new(SolveCache::new()))
            .run(&spec)
            .expect("the probe fleet runs")
    });
    layers::run_all(args.seed, &fleet, work, out);
    let events = trace::collect();
    out.dropped_spans += trace::dropped();
    trace::disable();
    spans::add_self_times(&mut out.trace_rows, &events);
    out.trace_events.extend(events);

    #[allow(clippy::cast_precision_loss)]
    {
        out.layer("obs.trace_dropped", out.dropped_spans as f64);
        out.layer(
            "bench.failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.layer("bench.output_mismatches", out.mismatches as f64);
    }
    println!("per-layer self time (traced run):");
    print!("{}", spans::render_table(&out.trace_rows));
    let path = PathBuf::from(".agsbench").join(format!("trace-{}.json", args.workload));
    match std::fs::write(&path, trace::render_chrome_trace(&out.trace_events)) {
        Ok(()) => println!(
            "chrome trace: {} ({} spans)",
            path.display(),
            out.trace_events.len()
        ),
        Err(e) => eprintln!("agsbench: cannot write {}: {e}", path.display()),
    }
}

fn print_result(args: &Args, out: &Metrics) {
    let (table, wanted): (&BTreeMap<String, f64>, &[(&str, &str)]) = if args.trace {
        (&out.layers, &PER_LAYER)
    } else {
        (&out.e2e, &END_TO_END)
    };
    #[allow(clippy::cast_precision_loss)]
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {})",
        out.failed, out.attempted
    );
    println!("output_mismatches = {}", out.mismatches);
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = table.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            host::json_str(name),
            host::json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.mismatches == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
}

/// `--repeat N`: N runs on consecutive seeds, each in its own process,
/// summarized per metric as median and quartiles, with every end-to-end
/// metric whose spread exceeds its bound in `BENCHMARK.json` flagged.
fn steadiness(args: &Args) -> ExitCode {
    let bounds = read_bounds();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut seeds = Vec::new();
    let mut all_correct = true;
    for i in 0..args.repeat {
        let seed = args.seed + i as u64;
        seeds.push(seed);
        let run = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(run) = run else {
            eprintln!("error: cannot run {}", exe.display());
            return ExitCode::from(1);
        };
        let stdout = String::from_utf8_lossy(&run.stdout);
        let Some(last) = stdout
            .lines()
            .last()
            .and_then(|l| serde::Value::parse_json(l).ok())
        else {
            eprintln!("error: run with seed {seed} printed no result");
            return ExitCode::from(1);
        };
        all_correct &= matches!(last.field("correct"), Ok(serde::Value::Bool(true)));
        if let Ok(serde::Value::Map(metrics)) = last.field("metrics") {
            for (name, m) in metrics {
                if let Ok(v) = m.field("value") {
                    let v = match v {
                        serde::Value::Float(f) => *f,
                        serde::Value::Int(i) => *i as f64,
                        _ => continue,
                    };
                    values.entry(name.clone()).or_default().push(v);
                }
            }
        }
        eprintln!("agsbench: run {}/{} (seed {seed}) done", i + 1, args.repeat);
    }
    println!("host {}", host::fingerprint_json());
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut unsteady = Vec::new();
    let mut fields = Vec::new();
    for (name, v) in &values {
        let [q1, q2, q3] = stats::quartiles(v).unwrap_or([v[0]; 3]);
        let spread = stats::relative_spread(v).unwrap_or(0.0);
        let bound = bounds.get(name).copied();
        let flag = bound.is_some_and(|b| spread > b && name != "setup_s");
        if flag {
            unsteady.push(name.clone());
        }
        println!(
            "{name:<28} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4} {:>6}{}",
            bound.map_or("-".to_owned(), |b| b.to_string()),
            if flag { "  SPREAD OVER BOUND" } else { "" }
        );
        fields.push(format!(
            "{}:{{\"q1\":{q1:?},\"median\":{q2:?},\"q3\":{q3:?},\"spread\":{spread:?}}}",
            host::json_str(name)
        ));
    }
    println!(
        "{{\"workload\":{},\"seeds\":{:?},\"correct\":{all_correct},\"unsteady\":{:?},\"metrics\":{{{}}}}}",
        host::json_str(&args.workload),
        seeds,
        unsteady,
        fields.join(",")
    );
    if unsteady.is_empty() && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn read_bounds() -> BTreeMap<String, f64> {
    let mut bounds = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return bounds;
    };
    let Ok(value) = serde::Value::parse_json(&text) else {
        return bounds;
    };
    if let Ok(serde::Value::Seq(metrics)) = value.field("end_to_end") {
        for m in metrics {
            if let (Ok(serde::Value::Str(name)), Ok(bound)) = (m.field("name"), m.field("bound")) {
                let bound = match bound {
                    serde::Value::Float(f) => *f,
                    serde::Value::Int(i) => *i as f64,
                    _ => continue,
                };
                bounds.insert(name.clone(), bound);
            }
        }
    }
    bounds
}
