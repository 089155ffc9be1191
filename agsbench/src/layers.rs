//! Layer probes of the traced run: each times one layer's public entry
//! point directly, on inputs drawn from the run's seed, inside a
//! benchmark span named after the layer.
//!
//! Program tracing and metrics stay off while probes prepare and while
//! their loops run, so a probe reports the layer's own cost; only the
//! enclosing benchmark span is recorded, with the loop's full duration,
//! for the self-time table.

use crate::schedule::Rng;
use crate::stats;
use crate::Metrics;
use ags::fleet::{offered_threads, FleetReport, FleetSpec};
use ags::obs::{metrics, trace};
use ags::pdn::{PdnGrid, Rail};
use ags::power::{ChipPowerModel, CorePowerState};
use ags::scheduling::AgsScheduler;
use ags::serve::http::{read_request, HttpLimits};
use ags::serve::task::{TaskKind, TaskState, TaskStore, TaskUpdate};
use ags::sim::journal::Journal;
use ags::sim::{
    experiment_fingerprint, Assignment, Experiment, LaneSpec, Placement, PointResult, ServerConfig,
    Simulation, SolveBatch, SolveCache, SweepEngine, SweepSpec,
};
use ags::types::Celsius;
use ags::workloads::{Catalog, WorkloadProfile};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The layer span around a timed loop: recording is on only while the
/// span opens and while it records on drop.
struct Probe {
    span: Option<trace::Span>,
}

impl Probe {
    fn open(name: &'static str) -> Self {
        trace::enable();
        let span = trace::span(name, 0);
        trace::disable();
        Probe { span: Some(span) }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        trace::enable();
        drop(self.span.take());
        trace::disable();
    }
}

fn pick_workload(rng: &mut Rng) -> WorkloadProfile {
    let all: Vec<&WorkloadProfile> = Catalog::shared().iter().collect();
    all[rng.below(all.len())].clone()
}

fn secs_to_us(secs: f64) -> f64 {
    secs * 1e6
}

/// The tick: mean cost of `Simulation::tick` on a busy two-socket server.
fn tick_us(seed: u64, rng: &mut Rng) -> f64 {
    let workload = pick_workload(rng);
    let assignment =
        Assignment::borrowed(&workload, 8).expect("8 threads fit a borrowed placement");
    let mut sim = Simulation::new(
        ServerConfig::power7plus(seed),
        assignment,
        ags::control::GuardbandMode::Undervolt,
    )
    .expect("catalog workloads build a simulation");
    for _ in 0..20 {
        black_box(sim.tick());
    }
    const TICKS: u32 = 20_000;
    let _probe = Probe::open("bench.sim.tick");
    let start = Instant::now();
    for _ in 0..TICKS {
        black_box(sim.tick());
    }
    secs_to_us(start.elapsed().as_secs_f64()) / f64::from(TICKS)
}

/// One cold grid point: `Experiment::run` on sampled sweep points.
fn point_us(seed: u64, rng: &mut Rng) -> f64 {
    let experiment = Experiment::power7plus(seed).with_ticks(30, 15);
    let modes = ags::control::GuardbandMode::all();
    let mut samples = Vec::new();
    let _probe = Probe::open("bench.sim.point");
    for _ in 0..24 {
        let workload = pick_workload(rng);
        let placement = Placement::all()[rng.below(3)];
        let cores = 1 + rng.below(8);
        let assignment = placement
            .assignment(&workload, cores)
            .expect("1..=8 cores fit every placement");
        let mode = modes[rng.below(modes.len())];
        let start = Instant::now();
        black_box(experiment.run(&assignment, mode).expect("grid points run"));
        samples.push(secs_to_us(start.elapsed().as_secs_f64()));
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// The batched solver: `SolveBatch::<2>::solve` from a cold start, the
/// two-socket batch one tick solves.
fn solve_us(seed: u64, rng: &mut Rng) -> f64 {
    let config = ServerConfig::power7plus(seed);
    let rail = Rail::new(config.nominal_voltage(), config.pdn.vrm_loadline);
    let grid = PdnGrid::new(&config.pdn);
    let power = ChipPowerModel::new(config.power.clone()).expect("default power config is valid");
    let workload = pick_workload(rng);
    let states = [CorePowerState::Running; 8];
    let ceffs = [workload.ceff_nf(); 8];
    let activities = [workload.activity(); 8];
    let freqs = [config.target_frequency; 8];
    let lane = LaneSpec {
        rail: &rail,
        power: &power,
        grid: &grid,
        temperature: Celsius(config.ambient.0 + 35.0),
        states: &states,
        ceffs: &ceffs,
        activities: &activities,
        freqs: &freqs,
        warm_start: None,
    };
    let mut batch = SolveBatch::<2>::new();
    const SOLVES: u32 = 20_000;
    let _probe = Probe::open("bench.sim.solve");
    let mut busy = 0.0;
    for _ in 0..SOLVES {
        batch.load(0, &lane);
        batch.load(1, &lane);
        let start = Instant::now();
        batch.solve();
        busy += start.elapsed().as_secs_f64();
        black_box(batch.lane(0));
    }
    secs_to_us(busy) / f64::from(SOLVES)
}

/// The cache probe: `SolveCache::probe_lanes` over the three modes of
/// warm lane blocks.
fn probe_us(seed: u64, rng: &mut Rng) -> f64 {
    let experiment = Experiment::power7plus(seed).with_ticks(30, 15);
    let workload = pick_workload(rng);
    let assignment = Assignment::single_socket(&workload, 4).expect("4 cores fit one socket");
    let modes = ags::control::GuardbandMode::all();
    let outcome = experiment
        .run(&assignment, modes[0])
        .expect("grid points run");
    let cache = SolveCache::new();
    let exp_fp = experiment_fingerprint(&experiment);
    const BLOCKS: u64 = 256;
    for block in 0..BLOCKS {
        for &mode in &modes {
            cache
                .solve_with(exp_fp, block, mode, 30, 15, 0, || Ok(outcome.clone()))
                .expect("cached fill cannot fail");
        }
    }
    let mut out = Vec::with_capacity(modes.len());
    const ROUNDS: u64 = 40;
    let _probe = Probe::open("bench.sim.cache.probe");
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for block in 0..BLOCKS {
            cache.probe_lanes(exp_fp, block, &modes, 30, 15, 0, &mut out);
            black_box(&out);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        secs_to_us(start.elapsed().as_secs_f64()) / (ROUNDS * BLOCKS) as f64
    }
}

/// A small healthy report to feed the journal and render probes.
fn probe_report(seed: u64, rng: &mut Rng) -> ags::sim::SweepReport {
    let names: Vec<String> = (0..6)
        .map(|_| pick_workload(rng).name().to_owned())
        .collect();
    let spec = SweepSpec::new(names, (1..=8).collect()).with_seed(seed);
    SweepEngine::with_cache(1, std::sync::Arc::new(SolveCache::new()))
        .run(&spec)
        .expect("probe sweep runs")
}

/// `Journal::append` of one checkpoint-sized segment, fsync included:
/// `(p50, p99)` in ms.
fn journal_append_ms(report: &ags::sim::SweepReport, dir: &Path) -> (f64, f64) {
    let mut journal: Journal<PointResult> =
        Journal::create(dir, &report.spec.manifest()).expect("probe journal directory is writable");
    let entries: Vec<(usize, PointResult)> = report
        .results
        .iter()
        .map(|r| (r.point.index, r.clone()))
        .collect();
    let mut samples = Vec::new();
    let _probe = Probe::open("bench.sim.journal.append");
    for _ in 0..3 {
        for chunk in entries.chunks(16) {
            let start = Instant::now();
            journal.append(chunk).expect("probe journal append");
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    (
        stats::median(&samples).unwrap_or(0.0),
        stats::percentile(&samples, 99.0).unwrap_or(0.0),
    )
}

/// `SweepReport::render_table` of the probe report, ms.
fn render_ms(report: &ags::sim::SweepReport) -> f64 {
    let mut samples = Vec::new();
    let _probe = Probe::open("bench.sim.render");
    for _ in 0..50 {
        let start = Instant::now();
        black_box(report.render_table());
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// `AgsScheduler::place` for every thread count a socket-level decision
/// takes (1..=8), a cold pass then a warm one: mean ms per call.
fn place_ms(seed: u64, rng: &mut Rng) -> f64 {
    let scheduler = AgsScheduler::new(Experiment::power7plus(seed).with_ticks(30, 15));
    let workload = pick_workload(rng);
    let _probe = Probe::open("bench.core.place");
    let start = Instant::now();
    for _pass in 0..2 {
        for threads in 1..=8 {
            black_box(
                scheduler
                    .place(&workload, threads)
                    .expect("1..=8 threads place"),
            );
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / 16.0
}

/// `offered_threads` over every server-epoch of the default fleet, ns.
fn offered_ns(seed: u64) -> f64 {
    let spec = FleetSpec::power7plus().with_seed(seed);
    let _probe = Probe::open("bench.fleet.offered_threads");
    let start = Instant::now();
    let mut total = 0usize;
    for server in 0..spec.servers {
        for epoch in 0..spec.epochs {
            total += offered_threads(black_box(&spec), server, epoch);
        }
    }
    black_box(total);
    #[allow(clippy::cast_precision_loss)]
    {
        start.elapsed().as_secs_f64() * 1e9 / (spec.servers * spec.epochs) as f64
    }
}

/// `FleetReport::table`, ms.
fn table_ms(report: &FleetReport) -> f64 {
    let mut samples = Vec::new();
    let _probe = Probe::open("bench.fleet.table");
    for _ in 0..20 {
        let start = Instant::now();
        black_box(report.table());
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// `http::read_request` over the given request bytes, µs per request.
fn parse_us(requests: &[Vec<u8>]) -> f64 {
    let limits = HttpLimits::default();
    const ROUNDS: usize = 2_000;
    let _probe = Probe::open("bench.serve.http.parse");
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for bytes in requests {
            let mut reader = std::io::Cursor::new(bytes.as_slice());
            black_box(read_request(&mut reader, &limits).expect("well-formed request"));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        secs_to_us(start.elapsed().as_secs_f64()) / (ROUNDS * requests.len().max(1)) as f64
    }
}

/// `TaskStore::submit` and `transition` on a scratch journal: median ms
/// of each.
fn task_store_ms(spec_json: &str, dir: &Path) -> (f64, f64) {
    let (mut store, _) = TaskStore::open(dir).expect("scratch task journal opens");
    let mut submits = Vec::new();
    let mut transitions = Vec::new();
    let _probe = Probe::open("bench.serve.task");
    for _ in 0..40 {
        let start = Instant::now();
        let id = store
            .submit(TaskKind::Sweep, spec_json.to_owned())
            .expect("scratch journal accepts a submit");
        submits.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        store
            .transition(&[TaskUpdate::to_state(id, TaskState::Batched, 0)])
            .expect("scratch journal accepts a transition");
        transitions.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (
        stats::median(&submits).unwrap_or(0.0),
        stats::median(&transitions).unwrap_or(0.0),
    )
}

/// Runs every probe on inputs drawn from `seed`, recording into `out`.
/// `fleet` is the report the table probe renders; `scratch` holds the
/// probe journals.
pub fn run_all(seed: u64, fleet: &FleetReport, scratch: &Path, out: &mut Metrics) {
    trace::disable();
    metrics::global().set_enabled(false);
    let mut rng = Rng::new(seed ^ 0x6c61_7965_7273);
    out.layer("sim.tick.us", tick_us(seed, &mut rng));
    out.layer("sim.point.us", point_us(seed, &mut rng));
    out.layer("sim.solve.us", solve_us(seed, &mut rng));
    out.layer("sim.cache.probe_us", probe_us(seed, &mut rng));
    let report = probe_report(seed, &mut rng);
    let (p50, p99) = journal_append_ms(&report, &scratch.join("probe-journal"));
    out.layer("sim.journal.append_ms.p50", p50);
    out.layer("sim.journal.append_ms.p99", p99);
    out.layer("sim.render.ms", render_ms(&report));
    out.layer("core.place.ms", place_ms(seed, &mut rng));
    out.layer("fleet.offered_threads.ns", offered_ns(seed));
    out.layer("fleet.table.ms", table_ms(fleet));
    out.layer(
        "serve.http.parse_us",
        parse_us(&crate::serve::sample_requests(seed)),
    );
    let spec_json = SweepSpec::smoke_grid().with_seed(seed).to_json();
    let (submit, transition) = task_store_ms(&spec_json, &scratch.join("probe-tasks"));
    out.layer("serve.task.submit_ms", submit);
    out.layer("serve.task.transition_ms", transition);
}
