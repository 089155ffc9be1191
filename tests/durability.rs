//! Durability contract of the campaign runner, end to end.
//!
//! The headline guarantee: a campaign that is killed outright (SIGKILL —
//! no handler, no cleanup) resumes from its journal and produces output
//! byte-identical to an uninterrupted run, at any worker count. And a
//! grid point that keeps panicking is quarantined after bounded retries
//! without disturbing any other point's bits.

use ags::control::GuardbandMode;
use ags::fleet::{FleetEngine, FleetRunOptions, FleetSpec, ShardResult};
use ags::sim::{
    std_fs, DurableOptions, JournalMode, PointResult, RetryPolicy, SolveCache, SweepEngine,
    SweepReport, SweepRunOptions, SweepSpec,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An engine with its own private cache, so per-test hit/miss counts
/// are not polluted by other tests in the same process.
fn engine(jobs: usize) -> SweepEngine {
    SweepEngine::with_cache(jobs, Arc::new(SolveCache::new()))
}

/// A fresh scratch directory under the target-local tmpdir, unique per
/// test so parallel test binaries never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ags-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the real `ags` binary and returns (exit code, stdout bytes).
fn run_ags(args: &[&str]) -> (Option<i32>, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_ags"))
        .args(args)
        .output()
        .expect("spawn ags");
    (out.status.code(), out.stdout)
}

/// A campaign slow enough (in a debug build) that SIGKILL lands while
/// points are still being solved, yet quick enough for CI.
fn slow_spec() -> SweepSpec {
    SweepSpec::new(
        vec!["raytrace".into(), "mcf".into()],
        vec![1, 2, 3, 4, 5, 6],
    )
    .with_modes(vec![
        GuardbandMode::StaticGuardband,
        GuardbandMode::Undervolt,
    ])
    .with_ticks(1600, 400)
}

#[test]
fn sigkilled_sweep_resumes_byte_identical() {
    let dir = scratch("kill");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, slow_spec().to_json()).expect("write spec");
    let spec_arg = spec_path.to_str().expect("utf-8 path");
    let journal = dir.join("journal");
    let journal_arg = journal.to_str().expect("utf-8 path");
    let ref_csv = dir.join("ref.csv");
    let res_csv = dir.join("res.csv");

    // Uninterrupted reference at --jobs 2.
    let (code, reference) = run_ags(&[
        "sweep",
        "--spec",
        spec_arg,
        "--jobs",
        "2",
        "--csv",
        ref_csv.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "reference run failed");

    // Journaled run, checkpointing every completed point; SIGKILL it as
    // soon as two segments have been flushed — mid-campaign, no chance
    // to clean up.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ags"))
        .args([
            "sweep",
            "--spec",
            spec_arg,
            "--jobs",
            "2",
            "--journal",
            journal_arg,
            "--checkpoint",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn journaled sweep");
    let deadline = Instant::now() + Duration::from_secs(60);
    while segment_count(&journal) < 2 && Instant::now() < deadline {
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it; resume still works
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().expect("reap child");
    assert!(
        segment_count(&journal) >= 1,
        "no checkpoint was flushed before the kill"
    );

    // Resume at a *different* worker count; stdout and CSV must match
    // the uninterrupted reference byte for byte.
    let (code, resumed) = run_ags(&[
        "sweep",
        "--resume",
        journal_arg,
        "--jobs",
        "1",
        "--csv",
        res_csv.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "resume failed");
    assert_eq!(reference, resumed, "resumed stdout diverged");
    assert_eq!(
        std::fs::read(&ref_csv).expect("read reference csv"),
        std::fs::read(&res_csv).expect("read resumed csv"),
        "resumed csv diverged"
    );

    // A resume under a different identity is refused outright.
    let (code, _) = run_ags(&["sweep", "--resume", journal_arg, "--seed", "9"]);
    assert_eq!(code, Some(1), "mismatched seed must be rejected");

    let _ = std::fs::remove_dir_all(&dir);
}

fn segment_count(journal: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(journal) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count()
}

/// Durable options that start a fresh journal at `dir`.
fn journal_at(dir: &Path) -> DurableOptions {
    DurableOptions {
        journal: JournalMode::Start(dir.to_path_buf()),
        ..DurableOptions::default()
    }
}

/// Journal-worthiness comes only from the cache's `computed` flag: a cold
/// campaign checkpoints exactly the solves it computed, and a fully warm
/// rerun — every result a cache hit, free to reproduce — checkpoints
/// nothing, for sweeps and fleets alike.
#[test]
fn only_computed_results_are_journaled() {
    let dir = scratch("worthy");
    let spec = quarantine_spec();
    let sweeps = engine(2);
    let cold = sweeps
        .run_durable(
            &spec,
            &SweepRunOptions {
                durable: journal_at(&dir.join("cold")),
                panic_injector: None,
            },
        )
        .expect("cold journaled sweep");
    let recovered = JournalMode::Resume(dir.join("cold"))
        .open_with::<PointResult>(&spec.manifest(), std_fs())
        .expect("reopen cold journal");
    assert!(cold.stats.cache.misses > 0);
    assert_eq!(recovered.entries.len() as u64, cold.stats.cache.misses);

    let warm = sweeps
        .run_durable(
            &spec,
            &SweepRunOptions {
                durable: journal_at(&dir.join("warm")),
                panic_injector: None,
            },
        )
        .expect("warm journaled sweep");
    assert_eq!(warm.results_json(), cold.results_json());
    assert_eq!(warm.stats.cache.misses, cold.stats.cache.misses);
    assert_eq!(segment_count(&dir.join("warm")), 0);

    let mut fleet = FleetSpec::smoke().with_scale(6, 3);
    fleet.measure_ticks = 3;
    fleet.warmup_ticks = 2;
    fleet.shard_servers = 2;
    let fleets = FleetEngine::with_cache(2, Arc::new(SolveCache::new()));
    let fleet_run = |journal: &str| {
        fleets
            .run_durable(
                &fleet,
                &FleetRunOptions {
                    durable: journal_at(&dir.join(journal)),
                    panic_injector: None,
                },
            )
            .expect("journaled fleet")
    };
    fleet_run("fleet-cold");
    let shards = JournalMode::Resume(dir.join("fleet-cold"))
        .open_with::<ShardResult>(&fleet.manifest(), std_fs())
        .expect("reopen cold fleet journal");
    assert!(!shards.entries.is_empty());
    fleet_run("fleet-warm");
    assert_eq!(segment_count(&dir.join("fleet-warm")), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The 16-point grid the quarantine property runs on.
fn quarantine_spec() -> SweepSpec {
    SweepSpec::new(vec!["raytrace".into(), "gcc".into()], vec![1, 2, 4, 8])
        .with_modes(vec![
            GuardbandMode::StaticGuardband,
            GuardbandMode::Undervolt,
        ])
        .with_ticks(6, 3)
}

/// The uninterrupted, injection-free reference, solved once per process.
fn clean_report() -> &'static SweepReport {
    static CLEAN: OnceLock<SweepReport> = OnceLock::new();
    CLEAN.get_or_init(|| engine(2).run(&quarantine_spec()).expect("clean sweep"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The quarantine property: one always-panicking grid point never
    /// aborts the campaign, lands in `failed_points` exactly once with
    /// the policy's attempt count, and leaves every other point
    /// bit-identical — at any worker count.
    #[test]
    fn injected_panic_is_quarantined_without_disturbing_other_points(
        victim in 0usize..16,
        jobs in 1usize..5,
    ) {
        let spec = quarantine_spec();
        let options = SweepRunOptions {
            durable: DurableOptions {
                retry: RetryPolicy { max_attempts: 2, backoff_ms: 0 },
                ..DurableOptions::default()
            },
            panic_injector: Some(Arc::new(move |p| p.index == victim)),
        };
        let report = engine(jobs)
            .run_durable(&spec, &options)
            .expect("a panicking point must not abort the campaign");

        prop_assert_eq!(report.failed_points.len(), 1);
        let failed = &report.failed_points[0];
        prop_assert_eq!(failed.index, victim);
        prop_assert_eq!(failed.attempts, 2);
        prop_assert!(failed.reason.contains("injected panic"));

        // Every surviving point is bit-identical to the clean run.
        let clean = clean_report();
        prop_assert_eq!(report.results.len(), spec.len() - 1);
        for r in &report.results {
            prop_assert_ne!(r.point.index, victim);
            let reference = &clean.results[r.point.index];
            prop_assert_eq!(
                serde::json::to_string(r),
                serde::json::to_string(reference)
            );
        }
    }
}
