//! The benchmark's workloads, built from the public plan API.
//!
//! Every plan is generated from the `--seed` argument: it is the plan
//! seed, from which every scenario derives its own engine stream
//! (block-time jitter) and arrival stream. The application mixes are drawn
//! once from a fixed seed.
//! Building a plan is the benchmark's set-up: trace generation, isolated
//! probes (the NTT denominators, and the time base that arrival gaps and
//! deadlines scale with) and plan construction.

use gpreempt::experiments::saturation::{
    N_SEEDS, SATURATION_ARRIVALS, SATURATION_BACKLOG_CAP, SATURATION_MECHANISMS,
    SATURATION_POLICIES, SATURATION_RHOS,
};
use gpreempt::gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt::sim::stats::percentile;
use gpreempt::sim::SimRng;
use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
use gpreempt::trace::{parboil, BenchmarkTrace, ProcessSpec, Workload, WorkloadGenerator};
use gpreempt::types::{RtSpec, SimError, SimTime};
use gpreempt::{PolicyKind, SimWorkspace, SimulationRun, Simulator, SimulatorConfig};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Saturation-shaped: two processes serving one Parboil kernel under
    /// open Poisson / sporadic / bursty arrivals at swept offered load.
    OpenArrival,
    /// Priority/spatial/mechanism-shaped: random 2- and 4-process Parboil
    /// mixes replayed to a completion target.
    ClosedLoop,
    /// Periodic processes with implicit deadlines under deadline-aware
    /// and deadline-blind preemptive policies.
    Realtime,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::OpenArrival, Kind::ClosedLoop, Kind::Realtime];

    /// The name the command line and the output use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenArrival => "open_arrival",
            Kind::ClosedLoop => "closed_loop",
            Kind::Realtime => "realtime",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Host seconds of run budget per timed pass. A pass of the plan takes
    /// 0.9-1.0 s (`open_arrival`) or 0.5 s (the others) on an idle 2-core
    /// x86-64 host and up to 1.4x that under co-tenant load, so the timed
    /// passes fill 70-100 % of the budget.
    pub fn pass_seconds(self) -> f64 {
        match self {
            Kind::OpenArrival => 1.4,
            Kind::ClosedLoop | Kind::Realtime => 0.7,
        }
    }

    /// Process count of the engine replay's concurrent launch streams,
    /// matching the workload's process count.
    pub fn replay_concurrency(self) -> usize {
        match self {
            Kind::OpenArrival => OPEN_SIZE,
            Kind::ClosedLoop | Kind::Realtime => 4,
        }
    }
}

/// The five Parboil applications that are cheapest to simulate (host time
/// per isolated run: tpacf 0.03 ms, sgemm 0.07, cutcp 0.14, mri-q 0.24,
/// histo 0.68; spmv, next, takes 2.4). Short scenarios let a run time
/// every scenario in many passes, and a scenario's fastest of many passes
/// is what holds its wall steady on a shared host.
const POOL: [&str; 5] = ["tpacf", "sgemm", "mri-q", "histo", "cutcp"];
/// Seed of the closed-loop and real-time application mixes. Fixed rather
/// than taken from `--seed`: which applications share the GPU moves ANTT
/// by a quarter from one draw to the next, more than any bound the
/// benchmark could hold a change to.
const MIX_SEED: u64 = 2014;

/// The open-arrival workload's service application. Its kernels outlast
/// the round-robin quantum, so RR preempts and the mechanism legs differ
/// (spmv's finish within it, which would make every mechanism leg
/// identical), and it is five times cheaper to simulate than histo.
const OPEN_SERVICE: &str = "cutcp";
/// Service processes of the open-arrival workload.
const OPEN_SIZE: usize = 2;
/// Simulated horizon per open-arrival run, in isolated times per process.
/// Shorter than the saturation sweep's `HORIZON_ISO_FACTOR` (12), so a
/// pass stays short enough to repeat within a run.
const OPEN_HORIZON_ISO: f64 = 8.0;

/// Closed-loop mixes per process count: every pool application is the
/// high-priority process this many times.
const CLOSED_REPS: usize = 2;
/// Closed-loop process counts.
const CLOSED_SIZES: [usize; 2] = [2, 4];
/// Simulated horizon per closed-loop run, in multiples of the mix's summed
/// isolated times (running every process back to back). Keeps a pass short
/// enough to repeat many times in a run: without it, the PPQ runs that
/// starve the low-priority processes while the high-priority one replays
/// dominate the pass. About a quarter of the scenarios stop at the cap with
/// a process that has not completed; it counts as starved.
const CLOSED_HORIZON_SUM_ISO: f64 = 3.0;

/// Real-time mixes per process count.
const RT_MIXES: usize = 5;
/// Real-time process counts.
const RT_SIZES: [usize; 2] = [2, 3];
/// Total utilization levels: deadline_i = isolated_i × size / u.
const RT_UTILIZATIONS: [f64; 2] = [0.5, 0.9];
/// Simulated horizon per real-time run, in periods of its slowest process.
const RT_HORIZON_PERIODS: f64 = 2.0;
/// The adaptive selector's preemption-latency target.
const RT_LATENCY_TARGET_US: u64 = 50;

/// What the per-scenario fold needs beyond the run itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioAux {
    /// Isolated execution time of each process's application.
    pub isolated: Vec<SimTime>,
    /// Response-time limit of each process: its relative deadline when it
    /// has a real-time contract, otherwise its fair-share bound
    /// `n_processes × isolated`.
    pub limit: Vec<SimTime>,
}

/// A built workload: the plan plus everything derived at set-up.
#[derive(Debug)]
pub struct Bench {
    /// The scenarios, in id order.
    pub plan: SweepPlan,
    /// Per-scenario fold inputs, indexed by scenario id.
    pub aux: Vec<ScenarioAux>,
    /// The applications the plan draws from (the engine replay's mix).
    pub pool: Vec<BenchmarkTrace>,
}

/// Wall-clock bounds of the three set-up phases of one build.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Trace generation: application traces and workload mixes.
    pub gen: (Instant, Instant),
    /// Isolated probes.
    pub isolated: (Instant, Instant),
    /// Plan construction.
    pub plan: (Instant, Instant),
}

impl Phases {
    /// Whole set-up time in seconds.
    pub fn total_s(&self) -> f64 {
        (self.plan.1 - self.gen.0).as_secs_f64()
    }
}

/// Builds workload `kind` from `seed`.
///
/// # Errors
///
/// Propagates isolated-probe simulation errors.
pub fn build(kind: Kind, seed: u64) -> Result<(Bench, Phases), SimError> {
    let config = SimulatorConfig::default();
    let t0 = Instant::now();
    let (pool, mixes) = generate(kind, &config);
    let t1 = Instant::now();
    let isolated = isolated_times(&config, &pool)?;
    let t2 = Instant::now();
    let iso_of = |name: &str| {
        let i = pool
            .iter()
            .position(|b| b.name() == name)
            .expect("every mix draws from the pool");
        isolated[i]
    };
    let mut plan = SweepPlan::new(config).with_seed(seed);
    let mut aux = Vec::new();
    match kind {
        Kind::OpenArrival => plan_open_arrival(&mut plan, &mut aux, &pool[0], isolated[0]),
        Kind::ClosedLoop => plan_closed_loop(&mut plan, &mut aux, &mixes, iso_of),
        Kind::Realtime => plan_realtime(&mut plan, &mut aux, &mixes, iso_of),
    }
    plan.assign_derived_seeds();
    let t3 = Instant::now();
    let bench = Bench { plan, aux, pool };
    let phases = Phases {
        gen: (t0, t1),
        isolated: (t1, t2),
        plan: (t2, t3),
    };
    Ok((bench, phases))
}

/// Generates the application pool and, for the mix-based workloads, the
/// random mixes.
fn generate(kind: Kind, config: &SimulatorConfig) -> (Vec<BenchmarkTrace>, Vec<Workload>) {
    let gpu = &config.machine.gpu;
    let traces = |names: &[&str]| -> Vec<BenchmarkTrace> {
        names
            .iter()
            .map(|n| parboil::benchmark(n, gpu).expect("pool names are Parboil applications"))
            .collect()
    };
    if kind == Kind::OpenArrival {
        return (traces(&[OPEN_SERVICE]), Vec::new());
    }
    let mut generator = WorkloadGenerator::new(traces(&POOL), SimRng::new(MIX_SEED));
    let mixes = if kind == Kind::ClosedLoop {
        CLOSED_SIZES
            .iter()
            .flat_map(|&size| generator.prioritized_population(size, CLOSED_REPS))
            .map(|w| w.with_min_completions(1))
            .collect()
    } else {
        RT_SIZES
            .iter()
            .flat_map(|&size| generator.random_population(size, RT_MIXES))
            .collect()
    };
    (generator.suite().to_vec(), mixes)
}

/// Isolated time of each application: a single-process FCFS run under the
/// context-switch mechanism, through the sweep runner.
fn isolated_times(
    config: &SimulatorConfig,
    pool: &[BenchmarkTrace],
) -> Result<Vec<SimTime>, SimError> {
    let mut plan = SweepPlan::new(
        config
            .clone()
            .with_mechanism(PreemptionMechanism::ContextSwitch),
    );
    for benchmark in pool {
        plan.push(Scenario::new(
            "isolated",
            benchmark.name(),
            Simulator::isolated_workload(benchmark),
            PolicyKind::Fcfs,
        ));
    }
    let folded =
        SweepRunner::new(1).run_fold(&plan, &|_, run| Ok(Simulator::isolated_time_of(&run)))?;
    Ok(folded.into_values())
}

/// The three mechanism selections every closed-loop preemptive leg is run
/// under.
fn mechanisms() -> [MechanismSelection; 3] {
    [
        MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
        MechanismSelection::Fixed(PreemptionMechanism::Draining),
        MechanismSelection::adaptive(),
    ]
}

/// The saturation sweep's grid (`gpreempt::experiments::saturation`): every
/// offered load, arrival family, policy and fixed mechanism, with its
/// backlog cap and seed replicates.
fn plan_open_arrival(
    plan: &mut SweepPlan,
    aux: &mut Vec<ScenarioAux>,
    service: &BenchmarkTrace,
    iso: SimTime,
) {
    let horizon = iso.scale(OPEN_HORIZON_ISO * OPEN_SIZE as f64);
    let facts = ScenarioAux {
        isolated: vec![iso; OPEN_SIZE],
        limit: vec![iso.scale(OPEN_SIZE as f64); OPEN_SIZE],
    };
    for rho in SATURATION_RHOS {
        // Aggregate offered rate = size / gap; capacity ≈ 1 / iso.
        let mean_gap = iso.scale(OPEN_SIZE as f64 / rho);
        for family in SATURATION_ARRIVALS {
            let processes = (0..OPEN_SIZE)
                .map(|_| {
                    ProcessSpec::new(service.clone())
                        .with_arrival(family.process(mean_gap))
                        .with_backlog_cap(SATURATION_BACKLOG_CAP)
                })
                .collect();
            // The horizon is the only stop condition.
            let workload = Workload::new(format!("open-rho{rho:.2}-{}", family.label()), processes)
                .with_min_completions(u32::MAX);
            for policy in SATURATION_POLICIES {
                for mechanism in SATURATION_MECHANISMS {
                    let selection = MechanismSelection::Fixed(mechanism);
                    for replicate in 0..N_SEEDS {
                        plan.push(
                            Scenario::new(
                                "open_arrival",
                                format!("{} {selection} r{replicate}", policy.label()),
                                workload.clone(),
                                policy,
                            )
                            .with_selection(selection)
                            .with_horizon(horizon),
                        );
                        aux.push(facts.clone());
                    }
                }
            }
        }
    }
}

fn plan_closed_loop(
    plan: &mut SweepPlan,
    aux: &mut Vec<ScenarioAux>,
    mixes: &[Workload],
    iso_of: impl Fn(&str) -> SimTime,
) {
    let cs = MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch);
    let mut legs = vec![(PolicyKind::Fcfs, cs), (PolicyKind::Npq, cs)];
    for policy in [PolicyKind::PpqExclusive, PolicyKind::Dss] {
        legs.extend(mechanisms().map(|selection| (policy, selection)));
    }
    for mix in mixes {
        let isolated: Vec<SimTime> = mix
            .processes()
            .iter()
            .map(|p| iso_of(p.benchmark.name()))
            .collect();
        let back_to_back: SimTime = isolated.iter().copied().sum();
        let horizon = back_to_back.scale(CLOSED_HORIZON_SUM_ISO);
        let facts = ScenarioAux {
            limit: isolated.iter().map(|t| t.scale(mix.len() as f64)).collect(),
            isolated,
        };
        for &(policy, selection) in &legs {
            plan.push(
                Scenario::new(
                    "closed_loop",
                    format!("{} {selection}", policy.label()),
                    mix.clone(),
                    policy,
                )
                .with_selection(selection)
                .with_horizon(horizon),
            );
            aux.push(facts.clone());
        }
    }
}

fn plan_realtime(
    plan: &mut SweepPlan,
    aux: &mut Vec<ScenarioAux>,
    mixes: &[Workload],
    iso_of: impl Fn(&str) -> SimTime,
) {
    let targets = [
        MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
        MechanismSelection::adaptive_with_target(SimTime::from_micros(RT_LATENCY_TARGET_US)),
    ];
    for mix in mixes {
        let isolated: Vec<SimTime> = mix
            .processes()
            .iter()
            .map(|p| iso_of(p.benchmark.name()))
            .collect();
        for u in RT_UTILIZATIONS {
            let factor = mix.len() as f64 / u;
            let deadlines: Vec<SimTime> = isolated.iter().map(|t| t.scale(factor)).collect();
            let processes = mix
                .processes()
                .iter()
                .zip(&deadlines)
                .map(|(spec, &deadline)| {
                    ProcessSpec::new(spec.benchmark.clone())
                        .with_rt(RtSpec::implicit(deadline))
                        .with_periodic_arrival()
                })
                .collect();
            let slowest = deadlines.iter().copied().max().unwrap_or(SimTime::ZERO);
            let horizon = slowest.scale(RT_HORIZON_PERIODS);
            let workload = Workload::new(format!("{}-u{u:.2}", mix.name()), processes)
                .with_min_completions(u32::MAX);
            let facts = ScenarioAux {
                isolated: isolated.clone(),
                limit: deadlines.clone(),
            };
            for policy in [PolicyKind::PpqExclusive, PolicyKind::Gcaps, PolicyKind::Edf] {
                for selection in targets {
                    plan.push(
                        Scenario::new(
                            "realtime",
                            format!("{} {selection}", policy.label()),
                            workload.clone(),
                            policy,
                        )
                        .with_selection(selection)
                        .with_horizon(horizon),
                    );
                    aux.push(facts.clone());
                }
            }
        }
    }
}

/// The configuration a scenario runs under: the plan's base configuration
/// plus the scenario's selection and seed overrides, exactly as the sweep
/// runner derives it.
pub fn scenario_config(plan: &SweepPlan, scenario: &Scenario) -> SimulatorConfig {
    let mut config = plan.config().clone();
    if let Some(selection) = scenario.selection {
        config = config.with_selection(selection);
    }
    if let Some(seed) = scenario.seed {
        config = config.with_seed(seed);
    }
    config
}

/// Simulates one scenario: through `ws` when given (the reused-workspace
/// path), or on a fresh simulator state otherwise.
///
/// # Errors
///
/// Propagates the simulation error.
pub fn simulate(
    sim: &Simulator,
    ws: Option<&mut SimWorkspace>,
    workload: &Workload,
    scenario: &Scenario,
) -> Result<SimulationRun, SimError> {
    match (ws, scenario.horizon) {
        (Some(ws), Some(h)) => sim.run_until_with(ws, workload, scenario.policy, h),
        (Some(ws), None) => sim.run_with(ws, workload, scenario.policy),
        (None, Some(h)) => sim.run_until(workload, scenario.policy, h),
        (None, None) => sim.run(workload, scenario.policy),
    }
}

/// A workload built several times over, keeping the last build and the
/// median time of each set-up phase.
#[derive(Debug)]
pub struct Setup {
    /// The last build.
    pub bench: Bench,
    /// The last build's phase bounds.
    pub phases: Phases,
    /// Whole set-up time of every build (s).
    pub totals_s: Vec<f64>,
    /// Median trace-generation time (ms).
    pub gen_ms: f64,
    /// Median isolated-probe time (ms).
    pub isolated_ms: f64,
    /// Median plan-construction time (ms).
    pub plan_ms: f64,
    /// Whether every build produced the same plan inputs.
    pub deterministic: bool,
}

/// Builds workload `kind` from `seed` `reps` times (at least once).
///
/// # Errors
///
/// Propagates isolated-probe simulation errors.
pub fn setup(kind: Kind, seed: u64, reps: usize) -> Result<Setup, SimError> {
    let ms = |(a, b): (Instant, Instant)| (b - a).as_secs_f64() * 1e3;
    let mut totals = Vec::new();
    let (mut gen, mut isolated, mut plan) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Bench, Phases)> = None;
    let mut deterministic = true;
    for _ in 0..reps.max(1) {
        let (bench, phases) = build(kind, seed)?;
        totals.push(phases.total_s());
        gen.push(ms(phases.gen));
        isolated.push(ms(phases.isolated));
        plan.push(ms(phases.plan));
        if let Some((prev, _)) = &last {
            deterministic &= prev.aux == bench.aux && prev.plan.len() == bench.plan.len();
        }
        last = Some((bench, phases));
    }
    let (bench, phases) = last.expect("at least one build");
    Ok(Setup {
        bench,
        phases,
        totals_s: totals,
        gen_ms: percentile(&gen, 50.0),
        isolated_ms: percentile(&isolated, 50.0),
        plan_ms: percentile(&plan, 50.0),
        deterministic,
    })
}

/// Thread blocks the plan's GPU can run at once: `n_sms × max_blocks_per_sm`.
pub fn block_slots(plan: &SweepPlan) -> u64 {
    let gpu = &plan.config().machine.gpu;
    gpu.n_sms as u64 * gpu.max_blocks_per_sm as u64
}
