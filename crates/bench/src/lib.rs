//! Shared helpers for the benchmark harness.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper (printing it to stdout) and then times a representative simulation
//! unit with Criterion. The experiment population is controlled with the
//! `GPREEMPT_SCALE` environment variable:
//!
//! * `quick` — five benchmarks, 2/4-process workloads, single executions
//!   (seconds; used by CI),
//! * `bench` — all ten benchmarks, 2/4/6/8-process workloads, reduced
//!   population (the default; a few minutes),
//! * `paper` — the full population described in §4.1 (tens of minutes
//!   sequentially; minutes with a parallel sweep).
//!
//! The figure benches run their experiments through [`run_from_env`], on
//! `GPREEMPT_JOBS` sweep workers (default: one per CPU; sweep results are
//! bit-identical at every worker count, so this only changes wall-clock
//! time, never output).

#![warn(missing_docs)]

use gpreempt::experiments::{self, Experiment, ExperimentScale, SweepCtx};
use gpreempt::{PolicyKind, SimulationRun, Simulator, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};

/// Runs one experiment over the default configuration at the
/// `GPREEMPT_SCALE` population (`quick` / `bench` / `paper`, default
/// `bench`) on `GPREEMPT_JOBS` workers (default `0` = one per CPU), prints
/// its wall-clock summary and returns its results.
///
/// # Panics
///
/// Panics if the experiment fails.
pub fn run_from_env<E: Experiment + Default>() -> E::Results {
    let scale = match std::env::var("GPREEMPT_SCALE").as_deref() {
        Ok("quick") => ExperimentScale::quick(),
        Ok("paper") => ExperimentScale::paper(),
        _ => ExperimentScale::bench(),
    };
    let jobs = std::env::var("GPREEMPT_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale, jobs);
    let (results, timing) = experiments::run::<E>(&mut ctx)
        .expect("experiment runs")
        .expect("a full run aggregates");
    println!("[{}]", timing.summary());
    results
}

/// A small representative workload (two short applications, one completed
/// execution each) used as the timed unit of the figure benches, so Criterion
/// iterations stay in the low-millisecond range.
pub fn representative_workload(config: &SimulatorConfig) -> Workload {
    let gpu = &config.machine.gpu;
    Workload::new(
        "representative",
        vec![
            ProcessSpec::new(parboil::benchmark("spmv", gpu).expect("spmv")),
            ProcessSpec::new(parboil::benchmark("sgemm", gpu).expect("sgemm")),
        ],
    )
    .with_min_completions(1)
}

/// Runs the representative workload once under the given policy.
pub fn run_representative(config: &SimulatorConfig, policy: PolicyKind) -> SimulationRun {
    let sim = Simulator::new(config.clone());
    sim.run(&representative_workload(config), policy)
        .expect("representative run")
}
