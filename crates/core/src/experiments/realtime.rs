//! The real-time scheduling experiment: deadline-aware policies under
//! swept load.
//!
//! Combines the two top follow-up directions on the paper's framework —
//! GCAPS-style context-aware preemptive scheduling (Wang et al. 2024) and
//! preemptive priority-based real-time scheduling evaluated by
//! deadline-miss rate (arXiv:2401.16529) — into one sweep over three axes:
//!
//! * **policy** — PPQ (the paper's preemptive priority scheduler, blind to
//!   deadlines), GCAPS (deadline-aware urgency + preemption-cost gate) and
//!   EDF (deadline-aware, cost-blind);
//! * **latency target** — the engine's preemption-mechanism selection:
//!   pinned context switch, or adaptive selection under a preemption-latency
//!   target (the `MechanismSelection::Adaptive` axis the ROADMAP calls
//!   for);
//! * **utilization** — how tight the deadlines are. Each process's relative
//!   deadline is `isolated_time × n_processes / u`: at `u = 1.0` a process
//!   fair-sharing the GPU with `n − 1` others sits exactly on its deadline,
//!   smaller `u` leaves slack.
//!
//! Every cell is replicated across `N_SEEDS` engine-RNG streams
//! ([`SweepPlan::assign_derived_seeds`]) and reported as mean ± half-width
//! of the 95 % confidence interval.

use crate::config::PolicyKind;
use crate::experiments::common::replicate_stat;
use crate::experiments::{Experiment, SweepCtx};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::{Metrics, Scenario, SweepPlan, SweepRecord, SweepReport};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_sim::stats;
use gpreempt_trace::{ProcessSpec, Workload};
use gpreempt_types::{RtSpec, SimError, SimTime};

/// The policies the experiment compares.
pub const REALTIME_POLICIES: [PolicyKind; 3] =
    [PolicyKind::PpqExclusive, PolicyKind::Gcaps, PolicyKind::Edf];

/// The utilization (deadline-tightness) axis.
pub const UTILIZATIONS: [f64; 2] = [0.5, 0.9];

/// The latency-target axis, in microseconds; `None` pins the context-switch
/// mechanism.
pub const LATENCY_TARGETS_US: [Option<u64>; 2] = [None, Some(50)];

/// Engine-RNG replicates per cell.
pub const N_SEEDS: usize = 3;

/// One point of the latency-target axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyTarget(pub Option<u64>);

impl LatencyTarget {
    /// The engine selection mode this axis point maps onto.
    pub fn selection(self) -> MechanismSelection {
        match self.0 {
            None => MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
            Some(us) => MechanismSelection::adaptive_with_target(SimTime::from_micros(us)),
        }
    }

    /// Label used in reports.
    pub fn label(self) -> String {
        match self.0 {
            None => "fixed-cs".to_string(),
            Some(us) => format!("adaptive:{us}us"),
        }
    }
}

/// The identity of one cell of the sweep (everything except the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct RealtimeCellKey {
    /// Workload name.
    pub workload: String,
    /// Number of co-scheduled processes.
    pub size: usize,
    /// The deadline-tightness axis value.
    pub utilization: f64,
    /// The policy under test.
    pub policy: PolicyKind,
    /// The preemption-latency-target axis value.
    pub target: LatencyTarget,
}

/// One cell of the sweep: a [`RealtimeCellKey`] plus statistics over its
/// seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct RealtimeCell {
    /// The cell identity.
    pub key: RealtimeCellKey,
    /// Per-seed fold records ([`RealtimeSweep::SCHEMA`]), in replicate
    /// order.
    pub points: Vec<Metrics>,
}

impl RealtimeCell {
    /// Mean and 95 % CI half-width of the deadline-miss rate.
    pub fn miss_rate(&self) -> (f64, f64) {
        replicate_stat(&self.points, "miss_rate")
    }

    /// Mean and CI of the mean response time (µs).
    pub fn mean_response_us(&self) -> (f64, f64) {
        replicate_stat(&self.points, "mean_response_us")
    }

    /// The worst tardiness across every replicate (µs).
    pub fn max_tardiness_us(&self) -> f64 {
        self.points
            .iter()
            .filter_map(|p| p.value("max_tardiness_us"))
            .fold(0.0, f64::max)
    }

    /// Mean preemption count across replicates.
    pub fn mean_preemptions(&self) -> f64 {
        replicate_stat(&self.points, "preemptions").0
    }
}

/// The full real-time experiment.
#[derive(Debug, Clone)]
pub struct RealtimeResults {
    cells: Vec<RealtimeCell>,
    sizes: Vec<usize>,
    seed: u64,
}

/// The real-time sweep: one benchmark mix per workload size, annotated with
/// implicit deadlines per utilization and run under every policy × latency
/// target × seed replicate; each run is folded into its deadline-miss,
/// response-time and preemption metrics. Its records spill to `--out` per
/// scenario.
#[derive(Debug, Default)]
pub struct RealtimeSweep {
    /// One key per cell, in enumeration order; each cell owns [`N_SEEDS`]
    /// consecutive scenarios.
    cell_keys: Vec<RealtimeCellKey>,
    sizes: Vec<usize>,
    seed: u64,
}

impl Experiment for RealtimeSweep {
    const NAME: &'static str = "realtime";
    const SCHEMA: &'static str = "miss_rate,mean_response_us,max_tardiness_us,completed,missed,\
        preemptions,mean_preempt_latency_us";
    type Results = RealtimeResults;

    fn plan(&mut self, ctx: &mut SweepCtx<'_>) -> Result<SweepPlan, SimError> {
        // One benchmark mix per workload size (drawn once, shared by every
        // utilization level so the axes stay orthogonal).
        let mut generator = ctx.scale.generator(&ctx.config);
        let mixes: Vec<(usize, Workload)> = ctx
            .scale
            .workload_sizes
            .iter()
            .map(|&size| (size, generator.random_workload(size)))
            .collect();
        self.sizes = ctx.scale.workload_sizes.clone();
        self.seed = ctx.scale.seed;
        let min_completions = ctx.scale.min_completions.max(3);

        let isolated = ctx.isolated_times(mixes.iter().map(|(_, w)| w))?;

        // Deadline-annotated workloads: deadline_i = iso_i * size / u.
        let mut plan = SweepPlan::new(ctx.config.clone()).with_seed(self.seed);
        for (size, mix) in &mixes {
            let iso = isolated.times_for(mix)?;
            for &utilization in &UTILIZATIONS {
                let factor = *size as f64 / utilization;
                let processes: Vec<ProcessSpec> = mix
                    .processes()
                    .iter()
                    .zip(&iso)
                    .map(|(spec, &iso_time)| {
                        ProcessSpec::new(spec.benchmark.clone())
                            .with_rt(RtSpec::implicit(iso_time.scale(factor)))
                    })
                    .collect();
                let workload = Workload::new(format!("rt-{size}p-u{utilization:.2}"), processes)
                    .with_min_completions(min_completions);
                for &policy in &REALTIME_POLICIES {
                    for &target_us in &LATENCY_TARGETS_US {
                        let target = LatencyTarget(target_us);
                        for replicate in 0..N_SEEDS {
                            plan.push(
                                Scenario::new(
                                    "realtime",
                                    format!("{} {} s{replicate}", policy.label(), target.label()),
                                    workload.clone(),
                                    policy,
                                )
                                .with_selection(target.selection()),
                            );
                        }
                        self.cell_keys.push(RealtimeCellKey {
                            workload: workload.name().to_string(),
                            size: *size,
                            utilization,
                            policy,
                            target,
                        });
                    }
                }
            }
        }
        // N-seed replication: every scenario gets its own engine-RNG stream
        // derived from the plan seed and its id.
        plan.assign_derived_seeds();
        Ok(plan)
    }

    fn fold(&self, scenario: &Scenario, run: &SimulationRun) -> Result<Metrics, SimError> {
        let rt = run.rt_metrics(&scenario.workload);
        let stats = run.engine_stats();
        Ok(Metrics::default()
            .with_value("miss_rate", rt.miss_rate())
            .with_value("mean_response_us", rt.mean_response().as_micros_f64())
            .with_value("max_tardiness_us", rt.max_tardiness().as_micros_f64())
            .with_value("completed", rt.completed() as f64)
            .with_value("missed", rt.missed() as f64)
            .with_value("preemptions", stats.preemptions as f64)
            .with_value(
                "mean_preempt_latency_us",
                stats.mean_preemption_latency().as_micros_f64(),
            ))
    }

    fn aggregate(self, metrics: Vec<Metrics>) -> Result<RealtimeResults, SimError> {
        let cells = self
            .cell_keys
            .into_iter()
            .zip(metrics.chunks(N_SEEDS))
            .map(|(key, points)| RealtimeCell {
                key,
                points: points.to_vec(),
            })
            .collect();
        Ok(RealtimeResults {
            cells,
            sizes: self.sizes,
            seed: self.seed,
        })
    }
}

impl RealtimeResults {
    /// The per-cell results, in enumeration order.
    pub fn cells(&self) -> &[RealtimeCell] {
        &self.cells
    }

    /// The workload sizes evaluated.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The cell for a (size, utilization, policy, target) combination.
    pub fn cell(
        &self,
        size: usize,
        utilization: f64,
        policy: PolicyKind,
        target: LatencyTarget,
    ) -> Option<&RealtimeCell> {
        self.cells.iter().find(|c| {
            c.key.size == size
                && c.key.utilization == utilization
                && c.key.policy == policy
                && c.key.target == target
        })
    }

    /// Whether at least one swept (size, utilization, latency-target)
    /// combination shows GCAPS with a **strictly lower** mean deadline-miss
    /// rate than PPQ — the headline acceptance criterion of the real-time
    /// subsystem.
    pub fn gcaps_beats_ppq_somewhere(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.key.policy == PolicyKind::Gcaps)
            .any(|gcaps| {
                self.cell(
                    gcaps.key.size,
                    gcaps.key.utilization,
                    PolicyKind::PpqExclusive,
                    gcaps.key.target,
                )
                .is_some_and(|ppq| gcaps.miss_rate().0 < ppq.miss_rate().0)
            })
    }

    /// The machine-readable report: one record per cell, carrying the
    /// mean ± CI of each metric plus the replicate count.
    pub fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for cell in &self.cells {
            let (miss, miss_ci) = cell.miss_rate();
            let (resp, resp_ci) = cell.mean_response_us();
            report.push(
                SweepRecord::new(
                    "realtime",
                    &cell.key.workload,
                    format!("{} {}", cell.key.policy.label(), cell.key.target.label()),
                    cell.key.size,
                )
                .with_value("utilization", cell.key.utilization)
                .with_value("miss_rate", miss)
                .with_value("miss_rate_ci95", miss_ci)
                .with_value("mean_response_us", resp)
                .with_value("mean_response_us_ci95", resp_ci)
                .with_value("max_tardiness_us", cell.max_tardiness_us())
                .with_value("preemptions", cell.mean_preemptions())
                .with_value("n_seeds", cell.points.len() as f64),
            );
        }
        report
    }

    /// Renders the sweep as a table: one row per cell with mean ± CI
    /// columns.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "util".into(),
            "policy".into(),
            "latency target".into(),
            "miss rate".into(),
            "mean response (us)".into(),
            "max tardiness (us)".into(),
            "preemptions".into(),
        ])
        .with_title(format!(
            "Real-time sweep: deadline-miss rate by policy x latency target x utilization \
             (mean +/- 95% CI over {N_SEEDS} seeds)"
        ));
        table.extend_rows(self.cells.iter().map(|cell| {
            let (miss, miss_ci) = cell.miss_rate();
            let (resp, resp_ci) = cell.mean_response_us();
            vec![
                cell.key.size.to_string(),
                format!("{:.2}", cell.key.utilization),
                cell.key.policy.label().to_string(),
                cell.key.target.label(),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(miss, 3),
                    stats::fmt_stat(miss_ci, 3)
                ),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(resp, 1),
                    stats::fmt_stat(resp_ci, 1)
                ),
                format!("{:.1}", cell.max_tardiness_us()),
                stats::fmt_stat(cell.mean_preemptions(), 1),
            ]
        }));
        table
    }
}
