//! Regression: the sweep-based harnesses must be bit-identical to the
//! hand-rolled sequential loops they replaced, at every worker count.
//!
//! Each test re-implements the pre-refactor loop verbatim (fresh simulator
//! per configuration, lazy isolated-time cache, nested size × workload ×
//! config iteration) and compares every floating-point outcome with `==` —
//! no tolerance — against the refactored harness run sequentially and in
//! parallel.

use gpreempt::config::{PolicyKind, SimulatorConfig};
use gpreempt::experiments::{
    self, Experiment, ExperimentScale, Fig2Results, Fig2Sweep, MechanismSweep, PriorityConfig,
    PrioritySweep, SpatialConfig, SpatialSweep, SweepCtx,
};
use gpreempt::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepRunner, SweepTiming};
use gpreempt::Simulator;
use gpreempt_gpu::PreemptionMechanism;
use gpreempt_trace::{parboil, ProcessSpec, Workload};

/// Per-configuration expectations of one spatial workload:
/// (config, antt, stp, fairness, per-process ntt).
type SpatialExpectation = (SpatialConfig, f64, f64, f64, Vec<f64>);

/// Per-configuration expectations of one prioritised workload:
/// (config, high-priority ntt, stp).
type PriorityExpectation = (PriorityConfig, f64, f64);

/// Runs one experiment in full mode under `ctx`.
fn run<E: Experiment + Default>(ctx: &mut SweepCtx<'_>) -> (E::Results, SweepTiming) {
    experiments::run::<E>(ctx)
        .unwrap()
        .expect("a full run aggregates")
}

/// Runs one experiment in full mode on `jobs` workers with a fresh cache.
fn fresh<E: Experiment + Default>(scale: &ExperimentScale, jobs: usize) -> E::Results {
    run::<E>(&mut SweepCtx::new(
        SimulatorConfig::default(),
        scale.clone(),
        jobs,
    ))
    .0
}

fn tiny_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
    scale.workload_sizes = vec![2];
    scale.reps_per_benchmark = 1;
    scale.random_workloads = 2;
    scale
}

#[test]
fn spatial_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();

    // The pre-refactor loop, verbatim.
    let mut generator = scale.generator(&config);
    let reference_sim = Simulator::new(
        config
            .clone()
            .with_mechanism(PreemptionMechanism::ContextSwitch),
    );
    let mut expected: Vec<(String, Vec<SpatialExpectation>)> = Vec::new();
    for &size in &scale.workload_sizes {
        for workload in generator.random_population(size, scale.random_workloads) {
            let workload = scale.finalize(workload);
            let iso = reference_sim.isolated_times(&workload).unwrap();
            let mut per_cfg = Vec::new();
            for cfg in SpatialConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                let sim = Simulator::new(config.clone().with_mechanism(mechanism));
                let run = sim.run(&workload, policy).unwrap();
                let metrics = run.metrics(&iso).unwrap();
                per_cfg.push((
                    cfg,
                    metrics.antt(),
                    metrics.stp(),
                    metrics.fairness(),
                    metrics.ntt().to_vec(),
                ));
            }
            expected.push((workload.name().to_string(), per_cfg));
        }
    }

    for jobs in [1usize, 2, 8] {
        let results = fresh::<SpatialSweep>(&scale, jobs);
        assert_eq!(results.records().len(), expected.len(), "jobs={jobs}");
        for (record, (name, per_cfg)) in results.records().iter().zip(&expected) {
            assert_eq!(&record.workload, name, "jobs={jobs}");
            for (cfg, antt, stp, fairness, ntt) in per_cfg {
                let outcome = &record.outcomes[cfg];
                assert_eq!(outcome.antt, *antt, "jobs={jobs} {name} {cfg}");
                assert_eq!(outcome.stp, *stp, "jobs={jobs} {name} {cfg}");
                assert_eq!(outcome.fairness, *fairness, "jobs={jobs} {name} {cfg}");
                assert_eq!(&outcome.ntt, ntt, "jobs={jobs} {name} {cfg}");
            }
        }
    }
}

#[test]
fn priority_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();

    let mut generator = scale.generator(&config);
    let reference_sim = Simulator::new(
        config
            .clone()
            .with_mechanism(PreemptionMechanism::ContextSwitch),
    );
    let mut expected: Vec<(String, Vec<PriorityExpectation>)> = Vec::new();
    for &size in &scale.workload_sizes {
        for workload in generator.prioritized_population(size, scale.reps_per_benchmark) {
            let workload = scale.finalize(workload);
            let iso = reference_sim.isolated_times(&workload).unwrap();
            let hp = workload.high_priority_process().unwrap();
            let mut per_cfg = Vec::new();
            for cfg in PriorityConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                let sim = Simulator::new(config.clone().with_mechanism(mechanism));
                let run = sim.run(&workload, policy).unwrap();
                let metrics = run.metrics(&iso).unwrap();
                per_cfg.push((cfg, metrics.ntt()[hp.index()], metrics.stp()));
            }
            expected.push((workload.name().to_string(), per_cfg));
        }
    }

    for jobs in [1usize, 4] {
        let results = fresh::<PrioritySweep>(&scale, jobs);
        assert_eq!(results.records().len(), expected.len(), "jobs={jobs}");
        for (record, (name, per_cfg)) in results.records().iter().zip(&expected) {
            assert_eq!(&record.workload, name, "jobs={jobs}");
            for (cfg, ntt_hp, stp) in per_cfg {
                let outcome = &record.outcomes[cfg];
                assert_eq!(
                    outcome.ntt_high_priority, *ntt_hp,
                    "jobs={jobs} {name} {cfg}"
                );
                assert_eq!(outcome.stp, *stp, "jobs={jobs} {name} {cfg}");
            }
        }
    }
}

#[test]
fn fig2_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();

    // Pre-refactor: one fresh context-switch simulator per policy.
    let workload = Fig2Results::workload();
    let mut expected = Vec::new();
    for policy in [PolicyKind::Fcfs, PolicyKind::Npq, PolicyKind::PpqExclusive] {
        let sim = Simulator::new(
            config
                .clone()
                .with_mechanism(PreemptionMechanism::ContextSwitch),
        );
        let run = sim.run(&workload, policy).unwrap();
        expected.push((policy, run.end_time(), run.events_processed()));
    }

    let fig2 = |jobs| -> Fig2Results { fresh::<Fig2Sweep>(&tiny_scale(), jobs) };
    for jobs in [1usize, 3] {
        let results = fig2(jobs);
        assert_eq!(results.timelines.len(), 3);
        for (timeline, (policy, _, _)) in results.timelines.iter().zip(&expected) {
            assert_eq!(timeline.policy, *policy);
        }
        // The timelines derive deterministically from the same runs.
        let sequential = fig2(1);
        assert_eq!(results, sequential, "jobs={jobs}");
    }
}

#[test]
fn mechanism_results_are_identical_across_worker_counts() {
    let mut scale = tiny_scale();
    scale.random_workloads = 2;

    let sequential = fresh::<MechanismSweep>(&scale, 1);
    let parallel = fresh::<MechanismSweep>(&scale, 4);
    assert_eq!(sequential.records().len(), parallel.records().len());
    for (a, b) in sequential.records().iter().zip(parallel.records()) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.outcomes, b.outcomes);
    }
    // The machine-readable reports agree byte for byte.
    assert_eq!(sequential.report().to_json(), parallel.report().to_json());
}

#[test]
fn harness_reports_cover_every_record_and_validate() {
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), tiny_scale(), 2);
    let (spatial, timing) = run::<SpatialSweep>(&mut ctx);
    let report = spatial.report();
    assert_eq!(
        report.len(),
        spatial.records().len() * SpatialConfig::all().len()
    );
    let n = gpreempt::SweepReport::validate_json(&report.to_json()).unwrap();
    assert_eq!(n, report.len());
    // Timing covers the isolated phase plus every main-phase scenario.
    assert!(timing.entries.len() >= report.len());
    assert!(timing.entries.iter().any(|e| e.group == "isolated"));

    let (fig2, _) = run::<Fig2Sweep>(&mut ctx);
    assert_eq!(fig2.report().len(), 3);
    assert!(gpreempt::SweepReport::validate_json(&fig2.report().to_json()).is_ok());
}

/// The fold every streaming-vs-keep-runs comparison below uses: identity of
/// the run compressed into a [`SweepRecord`].
fn record_of(scenario: &Scenario, run: &gpreempt::SimulationRun) -> SweepRecord {
    SweepRecord::new(
        &scenario.group,
        run.workload_name(),
        &scenario.label,
        run.n_processes(),
    )
    .with_value("events", run.events_processed() as f64)
    .with_value("end_time_us", run.end_time().as_micros_f64())
    .with_value(
        "mean_turnaround_us",
        run.mean_turnarounds()
            .iter()
            .map(|t| t.as_micros_f64())
            .sum::<f64>(),
    )
}

fn streaming_plan() -> SweepPlan {
    let gpu = gpreempt_types::GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let sgemm = parboil::benchmark("sgemm", &gpu).unwrap();
    let mut plan = SweepPlan::new(SimulatorConfig::default()).with_seed(77);
    for (i, policy) in [PolicyKind::Fcfs, PolicyKind::Dss, PolicyKind::PpqShared]
        .into_iter()
        .enumerate()
    {
        for j in 0..2 {
            let workload = Workload::new(
                format!("pair-{i}-{j}"),
                vec![
                    ProcessSpec::new(spmv.clone()),
                    ProcessSpec::new(sgemm.clone()),
                ],
            )
            .with_min_completions(1);
            plan.push(Scenario::new("stream", policy.label(), workload, policy));
        }
    }
    plan
}

/// Folding on the worker (at most one run per worker in memory) must
/// serialise to exactly the bytes of keeping every run (the identity fold)
/// and folding afterwards — at jobs 1, 2 and 8.
#[test]
fn folded_reports_are_byte_identical_to_keep_runs_reports() {
    let plan = streaming_plan();

    // Reference: sequential, every run retained, folded post-hoc.
    let keep = SweepRunner::new(1)
        .run_fold(&plan, &|_, run| Ok(run))
        .unwrap();
    let mut keep_report = SweepReport::new(plan.seed());
    for o in keep.outcomes() {
        keep_report.push(record_of(&plan.scenarios()[o.scenario_id], &o.value));
    }
    let expected = keep_report.to_json();

    for jobs in [1usize, 2, 8] {
        let folded = SweepRunner::new(jobs)
            .run_fold(&plan, &|scenario, run| Ok(record_of(scenario, &run)))
            .unwrap();
        // Event accounting survives the fold.
        assert_eq!(folded.events_total(), keep.events_total(), "jobs={jobs}");
        let mut report = SweepReport::new(plan.seed());
        for record in folded.into_values() {
            report.push(record);
        }
        assert_eq!(report.to_json(), expected, "jobs={jobs}");
    }
}

/// Sharing one isolated-run cache across experiments must (a) not change
/// a single output byte and (b) run each distinct isolated scenario exactly
/// once: the second and third experiments reuse the first's isolated runs
/// and enumerate zero "isolated" scenarios of their own.
#[test]
fn shared_isolated_cache_runs_each_isolated_scenario_exactly_once() {
    let scale = tiny_scale();
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale.clone(), 2);
    let (spatial, _) = run::<SpatialSweep>(&mut ctx);
    let simulated_by_first = ctx.cache.misses();
    assert!(simulated_by_first > 0, "first experiment fills the cache");
    assert_eq!(ctx.cache.len() as u64, simulated_by_first);

    // Mechanism draws the exact same random population as spatial, so its
    // isolated phase is fully served from the cache: zero new simulations,
    // zero enumerated "isolated" scenarios.
    let (mechanism, timing) = run::<MechanismSweep>(&mut ctx);
    assert_eq!(
        ctx.cache.misses(),
        simulated_by_first,
        "mechanism must not recompute isolated runs"
    );
    assert!(
        timing.entries.iter().all(|e| e.group != "isolated"),
        "mechanism re-ran isolated scenarios"
    );

    // Priority's population may introduce benchmarks spatial never drew;
    // those (and only those) are simulated. Globally, every distinct
    // benchmark is simulated exactly once: misses == cache entries.
    let (priority, _) = run::<PrioritySweep>(&mut ctx);
    assert_eq!(
        ctx.cache.misses(),
        ctx.cache.len() as u64,
        "a cached isolated run was recomputed"
    );
    assert!(ctx.cache.hits() > 0, "later experiments hit the cache");

    // Cached isolated times are bit-identical to freshly computed ones, so
    // the reports agree byte for byte with uncached runs.
    let spatial_fresh = fresh::<SpatialSweep>(&scale, 2);
    let mechanism_fresh = fresh::<MechanismSweep>(&scale, 2);
    let priority_fresh = fresh::<PrioritySweep>(&scale, 2);
    assert_eq!(spatial.report().to_json(), spatial_fresh.report().to_json());
    assert_eq!(
        mechanism.report().to_json(),
        mechanism_fresh.report().to_json()
    );
    assert_eq!(
        priority.report().to_json(),
        priority_fresh.report().to_json()
    );
}

#[test]
fn isolated_sweep_times_match_simulator_isolated_times() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();
    let mut generator = scale.generator(&config);
    let pair = generator.random_workload(2);
    // A repeated benchmark is simulated once and reported per process.
    let mut processes = pair.processes().to_vec();
    processes.push(processes[0].clone());
    let workload = Workload::new("repeat", processes);
    let reference = Simulator::new(
        config
            .clone()
            .with_mechanism(PreemptionMechanism::ContextSwitch),
    );
    let expected = reference.isolated_times(&workload).unwrap();
    for jobs in [1, 4] {
        let mut ctx = SweepCtx::new(config.clone(), scale.clone(), jobs);
        let times = ctx.isolated_times([&workload]).unwrap();
        assert_eq!(times.times_for(&workload).unwrap(), expected, "jobs={jobs}");
        assert_eq!(
            times.len() as u64,
            ctx.cache.misses(),
            "one run per benchmark"
        );
    }
}
