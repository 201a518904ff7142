//! The Figure 2 scenario: a soft real-time kernel competing with two
//! previously launched low-priority kernels.
//!
//! The paper uses this timeline to motivate preemption: with FCFS the
//! high-priority kernel K3 waits for K1 *and* K2; with a non-preemptive
//! priority scheduler it only waits for K1; with a preemptive scheduler it
//! starts almost immediately.

use crate::config::PolicyKind;
use crate::experiments::{Experiment, SweepCtx};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::{Metrics, Scenario, SweepPlan, SweepRecord, SweepReport};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_trace::{BenchmarkTrace, KernelSpec, ProcessSpec, Workload};
use gpreempt_types::{KernelFootprint, Priority, ProcessId, SimError, SimTime};

/// The three schedulers of the figure, in the order the paper draws them.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Fcfs, PolicyKind::Npq, PolicyKind::PpqExclusive];

/// Timeline of the three kernels under one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Timeline {
    /// The scheduler that produced this timeline.
    pub policy: PolicyKind,
    /// When the low-priority kernel K1 finished.
    pub k1_finish: SimTime,
    /// When the low-priority kernel K2 finished.
    pub k2_finish: SimTime,
    /// When the high-priority kernel K3 started executing on SMs.
    pub k3_start: SimTime,
    /// When the high-priority kernel K3 finished (its "deadline" latency).
    pub k3_finish: SimTime,
}

/// The Figure 2 experiment: the same three-kernel scenario under FCFS,
/// non-preemptive priority and preemptive priority scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Results {
    /// The three timelines in the order the paper draws them: (a) FCFS,
    /// (b) non-preemptive priority, (c) preemptive priority.
    pub timelines: Vec<Fig2Timeline>,
    plan_seed: u64,
}

/// The Figure 2 sweep: one scenario per scheduler; each run is folded into
/// its four timeline marks, in exact nanoseconds.
#[derive(Debug, Default)]
pub struct Fig2Sweep {
    plan_seed: u64,
}

impl Experiment for Fig2Sweep {
    const NAME: &'static str = "fig2";
    const SCHEMA: &'static str = "k1_finish_ns,k2_finish_ns,k3_start_ns,k3_finish_ns";
    type Results = Fig2Results;

    fn plan(&mut self, ctx: &mut SweepCtx<'_>) -> Result<SweepPlan, SimError> {
        let workload = Fig2Results::workload();
        let mut plan = SweepPlan::new(ctx.config.clone());
        for policy in POLICIES {
            plan.push(
                Scenario::new("fig2", policy.label(), workload.clone(), policy).with_selection(
                    MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
                ),
            );
        }
        self.plan_seed = plan.seed();
        Ok(plan)
    }

    fn fold(&self, _: &Scenario, run: &SimulationRun) -> Result<Metrics, SimError> {
        // Process 0 launches K1 then K2 (different streams); process 1
        // launches the high-priority K3.
        let low = || {
            run.kernel_completions()
                .iter()
                .filter(|c| c.process == ProcessId::new(0))
                .map(|c| c.finished_at)
        };
        let k1 = low().min().expect("K1 completed");
        let k2 = low().max().expect("K2 completed");
        let k3 = run
            .kernel_completions()
            .iter()
            .find(|c| c.process == ProcessId::new(1))
            .expect("K3 completed");
        let ns = |t: SimTime| t.as_nanos() as f64;
        Ok(Metrics::default()
            .with_value("k1_finish_ns", ns(k1))
            .with_value("k2_finish_ns", ns(k2))
            .with_value("k3_start_ns", ns(k3.started_at))
            .with_value("k3_finish_ns", ns(k3.finished_at)))
    }

    fn aggregate(self, metrics: Vec<Metrics>) -> Result<Fig2Results, SimError> {
        let time = |m: &Metrics, name: &str| m.get(name).map(|ns| SimTime::from_nanos(ns as u64));
        let timelines = POLICIES
            .into_iter()
            .zip(&metrics)
            .map(|(policy, m)| {
                Ok(Fig2Timeline {
                    policy,
                    k1_finish: time(m, "k1_finish_ns")?,
                    k2_finish: time(m, "k2_finish_ns")?,
                    k3_start: time(m, "k3_start_ns")?,
                    k3_finish: time(m, "k3_finish_ns")?,
                })
            })
            .collect::<Result<_, SimError>>()?;
        Ok(Fig2Results {
            timelines,
            plan_seed: self.plan_seed,
        })
    }
}

impl Fig2Results {
    /// The machine-readable report: one record per scheduler with the four
    /// timeline marks in microseconds.
    pub fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.plan_seed);
        for t in &self.timelines {
            report.push(
                SweepRecord::new("fig2", "figure-2", t.policy.label(), 2)
                    .with_value("k3_start_us", t.k3_start.as_micros_f64())
                    .with_value("k3_finish_us", t.k3_finish.as_micros_f64())
                    .with_value("k1_finish_us", t.k1_finish.as_micros_f64())
                    .with_value("k2_finish_us", t.k2_finish.as_micros_f64()),
            );
        }
        report
    }

    /// The three-kernel workload: K1 and K2 are long, low-priority kernels
    /// from one process; K3 is a short, high-priority kernel from another
    /// process, launched shortly after.
    pub fn workload() -> Workload {
        let long_kernel = |name: &str| {
            KernelSpec::new(
                name,
                KernelFootprint::new(8_192, 0, 256),
                2_080, // 20 full waves of the GPU
                SimTime::from_micros(100),
            )
        };
        // K1 and K2 are issued on different streams so both launch commands
        // reach the execution engine before K3 arrives, exactly as in the
        // paper's timeline (the engine then executes them in FCFS order).
        let low = BenchmarkTrace::builder("low-priority")
            .kernel(long_kernel("K1"))
            .kernel(long_kernel("K2"))
            .on_stream(gpreempt_types::StreamId::new(0))
            .launch(0)
            .on_stream(gpreempt_types::StreamId::new(1))
            .launch(1)
            .build();
        let high = BenchmarkTrace::builder("soft-real-time")
            .kernel(KernelSpec::new(
                "K3",
                KernelFootprint::new(8_192, 0, 256),
                104, // one full wave
                SimTime::from_micros(50),
            ))
            .cpu(SimTime::from_micros(300)) // K3 arrives while K1 is running
            .launch(0)
            .build();
        Workload::new(
            "figure-2",
            vec![
                ProcessSpec::new(low),
                ProcessSpec::new(high).with_priority(Priority::HIGH),
            ],
        )
        .with_min_completions(1)
    }

    /// The timeline produced by one of the three schedulers.
    pub fn timeline(&self, policy: PolicyKind) -> Option<&Fig2Timeline> {
        self.timelines.iter().find(|t| t.policy == policy)
    }

    /// Renders the three timelines.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "scheduler".into(),
            "K3 start (us)".into(),
            "K3 finish (us)".into(),
            "K1 finish (us)".into(),
            "K2 finish (us)".into(),
        ])
        .with_title("Figure 2: latency of the soft real-time kernel K3 under different schedulers");
        for t in &self.timelines {
            table.add_row(vec![
                t.policy.label().to_string(),
                format!("{:.1}", t.k3_start.as_micros_f64()),
                format!("{:.1}", t.k3_finish.as_micros_f64()),
                format!("{:.1}", t.k1_finish.as_micros_f64()),
                format!("{:.1}", t.k2_finish.as_micros_f64()),
            ]);
        }
        table
    }
}
