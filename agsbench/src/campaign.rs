//! The two in-process campaign workloads.
//!
//! * `sweep-journaled`: a cold-cache durable sweep of the full catalog ×
//!   cores 1–8 × every placement × every mode into a fresh journal.
//! * `fleet-diurnal`: the default 1000-server × 24-epoch diurnal fleet,
//!   not journaled.
//!
//! Each repetition builds a fresh engine over a fresh cache, so every
//! repetition does the same work. Results are deterministic for a seed
//! and are checked for exact equality, never timed.

use crate::host::{self, dir_usage};
use crate::stats;
use crate::Metrics;
use ags::fleet::{FleetEngine, FleetReport, FleetRunOptions, FleetSpec};
use ags::obs::{metrics, trace};
use ags::sim::journal::{fnv64, DurableOptions, JournalMode};
use ags::sim::{SimError, SolveCache, SweepEngine, SweepReport, SweepRunOptions, SweepSpec};
use ags::workloads::Catalog;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Digest of the default-seed sweep's `results_json`.
const SWEEP_DIGEST_DEFAULT_SEED: u64 = 0x65de_f6b2_7211_a244;
/// Digest of the default-seed fleet's `results_json`.
const FLEET_DIGEST_DEFAULT_SEED: u64 = 0xd080_6d84_0698_4e85;

/// Repetitions a run makes at least, whatever its time budget.
const MIN_REPS: usize = 5;
/// Traced repetitions of the traced run.
const TRACED_REPS: usize = 2;

/// Which campaign a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sweep-journaled`.
    Sweep,
    /// `fleet-diurnal`.
    Fleet,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Fleet => "fleet",
        }
    }
}

/// The workload's spec as the JSON a user would hand the CLI.
fn spec_json(kind: Kind, seed: u64) -> String {
    match kind {
        Kind::Sweep => {
            let names = Catalog::shared()
                .iter()
                .map(|w| w.name().to_owned())
                .collect();
            SweepSpec::new(names, (1..=8).collect())
                .with_placements(ags::sim::Placement::all().to_vec())
                .with_seed(seed)
                .to_json()
        }
        Kind::Fleet => FleetSpec::power7plus().with_seed(seed).to_json(),
    }
}

/// An engine ready to run a validated spec.
enum Prepared {
    Sweep(SweepSpec, SweepEngine),
    Fleet(FleetSpec, FleetEngine),
}

/// A finished campaign.
enum Report {
    Sweep(SweepReport),
    Fleet(FleetReport),
}

impl Report {
    fn digest(&self) -> u64 {
        match self {
            Report::Sweep(r) => fnv64(r.results_json().as_bytes()),
            Report::Fleet(r) => fnv64(r.results_json().as_bytes()),
        }
    }

    fn quarantined(&self) -> usize {
        match self {
            Report::Sweep(r) => r.failed_points.len(),
            Report::Fleet(r) => r.failed_shards.len(),
        }
    }

    /// Grid points (sweep) or server-epochs (fleet) the campaign covers.
    fn items(&self) -> usize {
        match self {
            Report::Sweep(r) => r.results.len(),
            Report::Fleet(r) => r.spec.servers * r.spec.epochs,
        }
    }
}

/// Parses and validates the spec and builds an engine over a cold cache:
/// everything up to "ready to run".
fn prepare(kind: Kind, json: &str, jobs: usize) -> Result<Prepared, SimError> {
    let catalog = Catalog::shared();
    let cache = Arc::new(SolveCache::new());
    Ok(match kind {
        Kind::Sweep => {
            let spec = SweepSpec::from_json(json)?;
            spec.validate(catalog)?;
            Prepared::Sweep(spec, SweepEngine::with_cache(jobs, cache))
        }
        Kind::Fleet => {
            let spec = FleetSpec::from_json(json)?;
            spec.validate(catalog)?;
            Prepared::Fleet(spec, FleetEngine::with_cache(jobs, cache))
        }
    })
}

impl Prepared {
    fn run(&self, journal: JournalMode) -> Result<Report, SimError> {
        let durable = DurableOptions {
            journal,
            ..DurableOptions::default()
        };
        match self {
            Prepared::Sweep(spec, engine) => engine
                .run_durable(
                    spec,
                    &SweepRunOptions {
                        durable,
                        panic_injector: None,
                    },
                )
                .map(Report::Sweep),
            Prepared::Fleet(spec, engine) => engine
                .run_durable(
                    spec,
                    &FleetRunOptions {
                        durable,
                        panic_injector: None,
                    },
                )
                .map(Report::Fleet),
        }
    }
}

/// Timings of one repetition.
struct Rep {
    setup_s: f64,
    campaign_s: f64,
    report: Report,
}

fn run_rep(kind: Kind, json: &str, jobs: usize, dir: &Path, traced: bool) -> Result<Rep, SimError> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = match kind {
        Kind::Sweep => JournalMode::Start(dir.to_path_buf()),
        Kind::Fleet => JournalMode::Off,
    };
    let (setup_name, run_name) = match kind {
        Kind::Sweep => ("bench.sweep.setup", "bench.sweep.run_durable"),
        Kind::Fleet => ("bench.fleet.setup", "bench.fleet.run"),
    };
    let start = Instant::now();
    let prepared = {
        let _span = traced.then(|| trace::span(setup_name, 0));
        prepare(kind, json, jobs)?
    };
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = {
        let span = traced.then(|| trace::span(run_name, 0));
        let _ctx = span.as_ref().map(trace::Span::push);
        prepared.run(journal)?
    };
    Ok(Rep {
        setup_s,
        campaign_s: start.elapsed().as_secs_f64(),
        report,
    })
}

/// Everything a campaign run measured, before it becomes metrics.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    campaign_s: Vec<f64>,
    items: usize,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Tally {
    /// Counts one campaign outcome: failed when it errs or quarantines
    /// work, mismatched when its digest differs from the first one seen.
    fn check(
        &mut self,
        result: Result<Report, SimError>,
        expect: &mut Option<u64>,
    ) -> Option<Report> {
        self.attempted += 1;
        match result {
            Ok(report) => {
                if report.quarantined() > 0 {
                    self.failed += 1;
                }
                let digest = report.digest();
                if *expect.get_or_insert(digest) != digest {
                    self.mismatches += 1;
                }
                Some(report)
            }
            Err(e) => {
                eprintln!("agsbench: campaign failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// [`Tally::check`] plus the repetition's timings.
    fn record(&mut self, rep: Result<Rep, SimError>, expect: &mut Option<u64>) -> Option<Report> {
        let (report, timing) = match rep {
            Ok(rep) => (Ok(rep.report), Some((rep.setup_s, rep.campaign_s))),
            Err(e) => (Err(e), None),
        };
        let report = self.check(report, expect)?;
        if let Some((setup_s, campaign_s)) = timing {
            self.setup_s.push(setup_s);
            self.campaign_s.push(campaign_s);
            self.items += report.items();
        }
        Some(report)
    }
}

/// Runs the workload for `seconds` and records its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, work: &Path, out: &mut Metrics) {
    let jobs = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let json = spec_json(kind, seed);
    let mut digest = None;
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let dir = |n: usize| -> PathBuf { work.join(format!("{}-{n}", kind.label())) };

    let mut timed = Tally::default();
    // The fleet workload runs unjournaled, so its restarts resume one
    // journaled copy of the campaign, written (untimed) up front.
    let fleet_copy = work.join("fleet-journal");
    if kind == Kind::Fleet {
        let copy =
            prepare(kind, &json, jobs).and_then(|p| p.run(JournalMode::Start(fleet_copy.clone())));
        timed.check(copy, &mut digest);
    }
    let mut restart_s = Vec::new();
    let started = Instant::now();
    let mut last_report = None;
    let mut n = 0;
    while n < MIN_REPS || started.elapsed() < budget {
        if n > 0 && kind == Kind::Sweep {
            let _ = std::fs::remove_dir_all(dir(n - 1));
        }
        last_report = timed.record(run_rep(kind, &json, jobs, &dir(n), false), &mut digest);
        // A restart after every repetition spreads the restart samples
        // over the run as the campaign samples are, so a slow minute on
        // the host moves both alike: the sweep resumes the journal it
        // just wrote, the fleet its journaled copy.
        let journal = match kind {
            Kind::Sweep => dir(n),
            Kind::Fleet => fleet_copy.clone(),
        };
        let start = Instant::now();
        let resumed = prepare(kind, &json, jobs).and_then(|p| p.run(JournalMode::Resume(journal)));
        let elapsed = start.elapsed().as_secs_f64();
        if timed.check(resumed, &mut digest).is_some() {
            restart_s.push(elapsed);
        }
        n += 1;
    }
    let last_dir = dir(n - 1);
    let peak_rss = host::peak_rss_mb("self");

    let campaign_ms: Vec<f64> = timed.campaign_s.iter().map(|s| s * 1e3).collect();
    let campaign_total: f64 = timed.campaign_s.iter().sum();
    let p50 = stats::median(&campaign_ms).unwrap_or(0.0);
    let tail = stats::tail(&campaign_ms);
    println!(
        "{} campaign: {} reps at --jobs {jobs}, campaign_s p50 {:.4} s, p{} {:.4} s",
        kind.label(),
        campaign_ms.len(),
        p50 / 1e3,
        tail.percentile,
        tail.value / 1e3
    );
    let listed: Vec<String> = campaign_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    println!(
        "{} campaign_ms by repetition: {}",
        kind.label(),
        listed.join(" ")
    );

    // The traced pass: metrics and spans on, exactly as `--metrics` and
    // `--trace` switch them on, around a few more repetitions.
    let mut traced_tally = Tally::default();
    if traced {
        ags::sim::telemetry::register_all();
        ags::fleet::telemetry::register_all();
        metrics::global().reset();
        metrics::global().set_enabled(true);
        trace::enable_with_capacity(1 << 18);
        for t in 0..TRACED_REPS {
            let rep = run_rep(kind, &json, jobs, &work.join(format!("traced-{t}")), true);
            traced_tally.record(rep, &mut digest);
            // Collected per repetition so rings never wrap; the Chrome
            // trace keeps the last repetition's spans.
            let events = trace::collect();
            out.dropped_spans += trace::dropped();
            crate::spans::add_self_times(&mut out.trace_rows, &events);
            out.trace_events = events;
        }
        #[allow(clippy::cast_precision_loss)]
        out.registry_layers(
            &host::prometheus_values(&metrics::global().render_prometheus()),
            TRACED_REPS as f64,
        );
        metrics::global().set_enabled(false);
        trace::disable();
    }

    let (journal_files, journal_bytes) = match kind {
        Kind::Sweep => dir_usage(&last_dir),
        Kind::Fleet => (0, 0),
    };

    // Correctness, after all timing: a --jobs 1 reference of the same
    // spec, and the default seed against its recorded digest.
    let reference = prepare(kind, &json, 1).and_then(|p| p.run(JournalMode::Off));
    match reference {
        Ok(r) if Some(r.digest()) == digest => {}
        Ok(r) => {
            eprintln!(
                "agsbench: --jobs 1 reference digest {:016x} differs",
                r.digest()
            );
            timed.mismatches += 1;
        }
        Err(e) => {
            eprintln!("agsbench: reference run failed: {e}");
            timed.mismatches += 1;
        }
    }
    let recorded = match kind {
        Kind::Sweep => SWEEP_DIGEST_DEFAULT_SEED,
        Kind::Fleet => FLEET_DIGEST_DEFAULT_SEED,
    };
    let default_digest = if seed == crate::DEFAULT_SEED {
        digest
    } else {
        prepare(kind, &spec_json(kind, crate::DEFAULT_SEED), 1)
            .and_then(|p| p.run(JournalMode::Off))
            .ok()
            .map(|r| r.digest())
    };
    println!(
        "{} default-seed digest {:016x} (recorded {recorded:016x})",
        kind.label(),
        default_digest.unwrap_or(0)
    );
    if default_digest != Some(recorded) {
        timed.mismatches += 1;
    }

    out.attempted += timed.attempted + traced_tally.attempted;
    out.failed += timed.failed + traced_tally.failed;
    out.mismatches += timed.mismatches + traced_tally.mismatches;
    out.e2e("setup_s", stats::median(&timed.setup_s).unwrap_or(0.0));
    out.e2e("peak_rss_mb", peak_rss);
    out.e2e("result_p50_ms", p50);
    #[allow(clippy::cast_precision_loss)]
    out.e2e("rate_per_s", timed.items as f64 / campaign_total);
    out.e2e("restart_s", stats::median(&restart_s).unwrap_or(0.0));
    out.layer("e2e.result_tail_ms", tail.value);

    if !traced {
        return;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        // The manifest is the one file that is not a segment.
        out.layer(
            "sim.journal.segments",
            journal_files.saturating_sub(1) as f64,
        );
        out.layer("sim.journal.bytes", journal_bytes as f64);
    }
    let traced_ms: Vec<f64> = traced_tally.campaign_s.iter().map(|s| s * 1e3).collect();
    let traced_p50 = stats::median(&traced_ms).unwrap_or(0.0);
    out.layer("obs.trace_overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
    out.fleet_report = match last_report {
        Some(Report::Fleet(r)) => Some(r),
        _ => None,
    };
}
