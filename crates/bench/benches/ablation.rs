//! Ablation benches for the design choices called out in DESIGN.md:
//! the pipeline-drain delay of the context-switch trap, per-block execution
//! time jitter, and the SM setup latency.
//!
//! Each ablation prints how the representative workload's metrics move as
//! the parameter changes, then times one configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::report::TextTable;
use gpreempt::{PolicyKind, Simulator, SimulatorConfig};
use gpreempt_bench::representative_workload;
use gpreempt_types::SimTime;
use std::hint::black_box;

fn dss_antt_and_preemptions(config: &SimulatorConfig) -> (f64, u64) {
    let sim = Simulator::new(config.clone());
    let workload = representative_workload(config);
    let isolated = sim.isolated_times(&workload).expect("isolated");
    let run = sim.run(&workload, PolicyKind::Dss).expect("run");
    let metrics = run.metrics(&isolated).expect("metrics");
    (metrics.antt(), run.engine_stats().preemptions)
}

fn ablate_pipeline_drain(c: &mut Criterion) {
    let mut table = TextTable::new(vec![
        "pipeline drain (us)".into(),
        "ANTT".into(),
        "preemptions".into(),
    ])
    .with_title("Ablation: context-switch pipeline-drain delay (DSS, representative workload)");
    for drain_us in [0u64, 1, 2, 5, 10] {
        let mut config = SimulatorConfig::default();
        config.machine.preemption.pipeline_drain = SimTime::from_micros(drain_us);
        let (antt, preemptions) = dss_antt_and_preemptions(&config);
        table.add_row(vec![
            drain_us.to_string(),
            format!("{antt:.3}"),
            preemptions.to_string(),
        ]);
    }
    println!("{}", table.render());

    let config = SimulatorConfig::default();
    c.bench_function("ablation/pipeline_drain_default", |b| {
        b.iter(|| dss_antt_and_preemptions(black_box(&config)))
    });
}

fn ablate_block_jitter(c: &mut Criterion) {
    let mut table = TextTable::new(vec!["jitter".into(), "ANTT".into(), "preemptions".into()])
        .with_title(
            "Ablation: per-thread-block execution-time jitter (DSS, representative workload)",
        );
    for jitter in [0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let mut config = SimulatorConfig::default();
        config.engine.block_time_jitter = jitter;
        let (antt, preemptions) = dss_antt_and_preemptions(&config);
        table.add_row(vec![
            format!("{jitter:.2}"),
            format!("{antt:.3}"),
            preemptions.to_string(),
        ]);
    }
    println!("{}", table.render());

    let mut config = SimulatorConfig::default();
    config.engine.block_time_jitter = 0.2;
    c.bench_function("ablation/jitter_0_2", |b| {
        b.iter(|| dss_antt_and_preemptions(black_box(&config)))
    });
}

fn ablate_sm_setup_time(c: &mut Criterion) {
    let mut table = TextTable::new(vec![
        "SM setup (us)".into(),
        "ANTT".into(),
        "preemptions".into(),
    ])
    .with_title("Ablation: SM driver setup latency (DSS, representative workload)");
    for setup_us in [0u64, 1, 5, 20] {
        let mut config = SimulatorConfig::default();
        config.engine.sm_setup_time = SimTime::from_micros(setup_us);
        let (antt, preemptions) = dss_antt_and_preemptions(&config);
        table.add_row(vec![
            setup_us.to_string(),
            format!("{antt:.3}"),
            preemptions.to_string(),
        ]);
    }
    println!("{}", table.render());

    let mut config = SimulatorConfig::default();
    config.engine.sm_setup_time = SimTime::from_micros(5);
    c.bench_function("ablation/setup_5us", |b| {
        b.iter(|| dss_antt_and_preemptions(black_box(&config)))
    });
}

criterion_group!(
    benches,
    ablate_pipeline_drain,
    ablate_block_jitter,
    ablate_sm_setup_time
);
criterion_main!(benches);
