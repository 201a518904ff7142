//! Regenerates the Figure 2 timeline (soft real-time kernel under FCFS /
//! NPQ / PPQ) and times the scenario simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, ExperimentScale, Fig2Sweep, SweepCtx};
use gpreempt::SimulatorConfig;
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), ExperimentScale::quick(), 1);
    let mut fig2 = || experiments::run::<Fig2Sweep>(black_box(&mut ctx)).unwrap();
    let (results, _) = fig2().expect("a full run aggregates");
    println!("{}", results.render().render());

    c.bench_function("fig2/three_scheduler_timeline", |b| b.iter(&mut fig2));
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
