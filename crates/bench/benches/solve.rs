//! Benchmarks of the batched SoA steady-state solver.
//!
//! `solve_batch` is the tick hot path: one 32 ms firmware window of a
//! dual-socket server, both sockets' voltage lanes solved by a single
//! [`p7_sim::SolveBatch`] sweep with warm seeds from the previous
//! window. This is the number EXPERIMENTS.md quotes for the per-tick
//! cost, and the one CI's bench-regression smoke times.
//!
//! With the `scalar-oracle` feature enabled, `solve_scalar_oracle`
//! times the retained one-lane-at-a-time solver on the same workload —
//! the differential baseline the SoA refactor is measured against.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use p7_control::GuardbandMode;
use p7_sim::{Assignment, ServerConfig, Simulation};
use p7_workloads::Catalog;

/// A simulation with both sockets busy: a borrowed-core placement runs
/// threads on socket 0 and socket 1, so every tick solves two occupied
/// lanes (the worst-case batch for the 2-socket server).
fn busy_server() -> Simulation {
    let w = Catalog::power7plus().get("raytrace").unwrap().clone();
    let assignment = Assignment::borrowed(&w, 8).unwrap();
    let mut sim = Simulation::new(
        ServerConfig::power7plus(1),
        assignment,
        GuardbandMode::Undervolt,
    )
    .unwrap();
    // Settle the DPLLs and seed the warm starts before timing.
    for _ in 0..10 {
        sim.tick();
    }
    sim
}

fn bench_solve_batch(c: &mut Criterion) {
    let mut sim = busy_server();
    c.bench_function("solve_batch", |b| {
        b.iter(|| black_box(sim.tick()));
    });
}

fn bench_solve_scalar_oracle(c: &mut Criterion) {
    #[cfg(feature = "scalar-oracle")]
    {
        let mut sim = busy_server();
        sim.set_scalar_oracle(true);
        c.bench_function("solve_scalar_oracle", |b| {
            b.iter(|| black_box(sim.tick()));
        });
    }
    #[cfg(not(feature = "scalar-oracle"))]
    let _ = c;
}

criterion_group!(benches, bench_solve_batch, bench_solve_scalar_oracle);
criterion_main!(benches);
