//! Regenerates Figure 8: the distribution of average normalized turnaround
//! time (ANTT) across all simulated workloads, for FCFS and DSS with both
//! preemption mechanisms.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::SpatialSweep;
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_bench::{run_from_env, run_representative};
use std::hint::black_box;

fn bench_fig8(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let results = run_from_env::<SpatialSweep>();
    println!("{}", results.render_fig8().render());

    // Timed unit: the FCFS baseline every Figure 8 curve is compared to.
    c.bench_function("fig8/fcfs_representative", |b| {
        b.iter(|| run_representative(black_box(&config), PolicyKind::Fcfs))
    });
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
