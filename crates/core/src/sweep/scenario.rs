//! One enumerated simulation unit of a sweep.

use crate::config::PolicyKind;
use gpreempt_gpu::MechanismSelection;
use gpreempt_trace::Workload;
use gpreempt_types::SimTime;
use std::time::Duration;

/// A fully-specified simulation: the workload, the scheduling policy, and
/// optional per-scenario overrides of the plan's base configuration.
///
/// Scenarios are *values*: everything a worker thread needs to run one
/// simulation is captured here at enumeration time, so execution order
/// cannot influence results — the property the parallel runner's
/// bit-identical-to-sequential guarantee rests on.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable index in the plan's enumeration order (assigned by
    /// [`SweepPlan::push`](crate::sweep::SweepPlan::push)).
    pub id: usize,
    /// Which experiment family this scenario belongs to (e.g. `"priority"`,
    /// `"spatial"`, `"isolated"`).
    pub group: String,
    /// The configuration label within the group (e.g. `"PPQ Draining"`).
    pub label: String,
    /// The workload to simulate.
    pub workload: Workload,
    /// The scheduling policy to run it under.
    pub policy: PolicyKind,
    /// Mechanism-selection override; `None` keeps the plan configuration's
    /// selection.
    pub selection: Option<MechanismSelection>,
    /// Engine-RNG seed override; `None` keeps the plan configuration's
    /// seed. [`SweepPlan::assign_derived_seeds`](crate::sweep::SweepPlan::assign_derived_seeds)
    /// fills this with a stream derived from the plan seed and the
    /// scenario id.
    pub seed: Option<u64>,
    /// Simulated-time horizon; when set, the scenario runs via
    /// [`Simulator::run_until`](crate::Simulator::run_until) and stops at
    /// the horizon even if the replay target was not met. Open-arrival
    /// saturation sweeps need this: an overloaded service never reaches a
    /// completion target.
    pub horizon: Option<SimTime>,
}

impl Scenario {
    /// Creates a scenario with no configuration overrides. The id is
    /// assigned when the scenario is pushed onto a plan.
    pub fn new(
        group: impl Into<String>,
        label: impl Into<String>,
        workload: Workload,
        policy: PolicyKind,
    ) -> Self {
        Scenario {
            id: 0,
            group: group.into(),
            label: label.into(),
            workload,
            policy,
            selection: None,
            seed: None,
            horizon: None,
        }
    }

    /// Overrides the preemption-mechanism selection for this scenario.
    #[must_use]
    pub fn with_selection(mut self, selection: MechanismSelection) -> Self {
        self.selection = Some(selection);
        self
    }

    /// Overrides the engine-RNG seed for this scenario.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Caps the scenario at a simulated-time horizon (fixed-duration run
    /// instead of a replay-target run).
    #[must_use]
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Number of co-scheduled processes.
    pub fn size(&self) -> usize {
        self.workload.len()
    }
}

/// The outcome of one scenario under a streaming fold: whatever the fold
/// extracted from the finished [`SimulationRun`](crate::SimulationRun)
/// (which was dropped on the worker), plus the scenario's wall clock and
/// event count.
#[derive(Debug, Clone)]
pub struct FoldedScenario<T> {
    /// The scenario's id in the plan.
    pub scenario_id: usize,
    /// The fold's output for this scenario.
    pub value: T,
    /// Wall-clock time spent simulating (and folding) this scenario.
    pub wall: Duration,
    /// Simulation events the scenario processed.
    pub events: u64,
    /// Allocation events charged to this scenario on its worker thread
    /// (zero unless the process installed a counting allocator).
    pub allocs: u64,
}
