//! The per-scenario fold, its bookkeeping identities, the output digest and
//! the simulated (`sim_*`) end-to-end metrics.

use crate::workloads::ScenarioAux;
use gpreempt::gpu::EngineStats;
use gpreempt::metrics::{RtMetrics, RtProcessMetrics};
use gpreempt::sim::stats::percentile;
use gpreempt::sweep::{Scenario, SweepPlan};
use gpreempt::types::SimError;
use gpreempt::SimulationRun;

/// Every value the fold keeps for one scenario, as exact 64-bit words
/// (floats by their bit pattern), so results compare and digest exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    words: [u64; WORDS],
}

const WORDS: usize = 25;

// Word positions.
const EVENTS: usize = 0;
const END_NS: usize = 1;
const BLOCKS: usize = 2;
const BUSY_NS: usize = 3;
const PREEMPTIONS: usize = 4;
const PREEMPTIONS_DONE: usize = 5;
const PREEMPTION_LATENCY_NS: usize = 6;
const BLOCKS_SAVED: usize = 7;
const SAVE_NS: usize = 8;
const KERNELS: usize = 9;
const ADAPTIVE_DRAIN: usize = 10;
const ADAPTIVE_CS: usize = 11;
const ADAPTIVE_ESTIMATE_NS: usize = 12;
const ADAPTIVE_DONE: usize = 13;
const ADAPTIVE_ERROR_NS: usize = 14;
const CLAMPED: usize = 15;
const RELEASED: usize = 16;
const ADMITTED: usize = 17;
const SHED: usize = 18;
const COMPLETED: usize = 19;
const MISSED: usize = 20;
const P99_US: usize = 21;
const ANTT: usize = 22;
const VIOLATIONS: usize = 23;
const DEADLINE_TOTAL: usize = 24;

/// The bookkeeping identities checked on every scenario, by bit.
pub const IDENTITIES: [&str; 4] = [
    "released = admitted + shed",
    "preemptions completed <= requested",
    "block busy time <= n_sms x max_blocks_per_sm x end time",
    "no clamped events in a closed loop",
];

/// Folds one finished run into its [`Outcome`], checking the identities
/// the run's public statistics must satisfy. `block_slots` is the GPU's
/// `n_sms × max_blocks_per_sm`: the engine's busy time sums the durations
/// of completed blocks, up to `max_blocks_per_sm` of which run at once on
/// one SM.
///
/// # Errors
///
/// Fails when the NTT metrics cannot be computed (a mismatched isolated
/// vector), which is a benchmark bug.
pub fn fold(
    scenario: &Scenario,
    run: SimulationRun,
    aux: &ScenarioAux,
    block_slots: u64,
) -> Result<Outcome, SimError> {
    let stats: EngineStats = run.engine_stats();
    let slo = run.slo_metrics();
    let antt = if run.n_processes() >= 2 {
        run.metrics(&aux.isolated)?.antt()
    } else {
        f64::NAN
    };
    // Deadline misses against each process's response-time limit.
    let rt = RtMetrics::new(
        run.iterations()
            .iter()
            .zip(&aux.limit)
            .map(|(records, &limit)| {
                RtProcessMetrics::from_executions(
                    Some(limit),
                    records.iter().map(|r| (r.released, r.finished)),
                )
            })
            .collect(),
    );

    let arrivals = run.arrival_stats();
    let mut violations = 0u64;
    if arrivals.iter().any(|a| a.released != a.admitted + a.shed) {
        violations |= 1;
    }
    if stats.preemptions_completed > stats.preemptions {
        violations |= 2;
    }
    if stats.busy_time.as_nanos() as u128 > block_slots as u128 * run.end_time().as_nanos() as u128
    {
        violations |= 4;
    }
    if !scenario.workload.has_open_arrivals() && stats.events_clamped != 0 {
        violations |= 8;
    }

    let mut words = [0u64; WORDS];
    words[EVENTS] = run.events_processed();
    words[END_NS] = run.end_time().as_nanos();
    words[BLOCKS] = stats.blocks_completed;
    words[BUSY_NS] = stats.busy_time.as_nanos();
    words[PREEMPTIONS] = stats.preemptions;
    words[PREEMPTIONS_DONE] = stats.preemptions_completed;
    words[PREEMPTION_LATENCY_NS] = stats.preemption_latency_total.as_nanos();
    words[BLOCKS_SAVED] = stats.blocks_saved;
    words[SAVE_NS] = stats.save_time.as_nanos();
    words[KERNELS] = stats.kernels_completed;
    words[ADAPTIVE_DRAIN] = stats.adaptive_drain_picks;
    words[ADAPTIVE_CS] = stats.adaptive_cs_picks;
    words[ADAPTIVE_ESTIMATE_NS] = stats.adaptive_estimated_latency.as_nanos();
    words[ADAPTIVE_DONE] = stats.adaptive_completed;
    words[ADAPTIVE_ERROR_NS] = stats.adaptive_latency_error.as_nanos();
    words[CLAMPED] = stats.events_clamped;
    words[RELEASED] = arrivals.iter().map(|a| a.released).sum();
    words[ADMITTED] = arrivals.iter().map(|a| a.admitted).sum();
    words[SHED] = arrivals.iter().map(|a| a.shed).sum();
    words[COMPLETED] = rt.completed();
    words[MISSED] = rt.missed();
    words[DEADLINE_TOTAL] = deadline_total(&rt);
    words[P99_US] = slo.p99_us().to_bits();
    words[ANTT] = antt.to_bits();
    words[VIOLATIONS] = violations;
    Ok(Outcome { words })
}

/// The executions `RtMetrics::missed` counts against: each process's
/// completions, or the one synthetic missed execution of a starved
/// process, as `RtMetrics::miss_rate` counts them.
fn deadline_total(rt: &RtMetrics) -> u64 {
    rt.per_process()
        .iter()
        .filter(|p| p.deadline.is_some())
        .map(|p| p.completed.max(1))
        .sum()
}

impl Outcome {
    /// Names of the identities this scenario violated.
    pub fn violations(&self) -> impl Iterator<Item = &'static str> + '_ {
        IDENTITIES
            .iter()
            .enumerate()
            .filter(|(bit, _)| self.words[VIOLATIONS] & (1 << bit) != 0)
            .map(|(_, name)| *name)
    }

    fn p99_us(&self) -> f64 {
        f64::from_bits(self.words[P99_US])
    }

    fn antt(&self) -> f64 {
        f64::from_bits(self.words[ANTT])
    }
}

/// FNV-1a over the words of every outcome, in scenario-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs one outcome.
    pub fn push(&mut self, outcome: &Outcome) {
        for word in outcome.words {
            for byte in word.to_le_bytes() {
                self.0 ^= byte as u64;
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// The digest of a whole pass.
    pub fn of(outcomes: &[Outcome]) -> Digest {
        let mut d = Digest::default();
        outcomes.iter().for_each(|o| d.push(o));
        d
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The simulated end-to-end metrics of one pass. Deterministic for a seed:
/// a change that only speeds the program up leaves them bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Median over scenarios of the pooled p99 response time (µs).
    pub p99_response_us: f64,
    /// Mean ANTT over the scenarios in which every process completed.
    pub antt: f64,
    /// Σ missed / Σ executions, a starved process counting one missed
    /// execution (the pooled `RtMetrics::miss_rate`).
    pub miss_rate: f64,
    /// Σ adaptive latency error / Σ completed adaptive preemptions (µs),
    /// over adaptive scenarios; 0 when the plan makes no adaptive pick.
    pub estimate_error_us: f64,
    /// Digest of every fold value.
    pub digest: Digest,
}

/// Condenses one pass (outcomes in scenario-id order) into its metrics.
pub fn summarize(plan: &SweepPlan, outcomes: &[Outcome]) -> SimMetrics {
    let p99: Vec<f64> = outcomes
        .iter()
        .map(Outcome::p99_us)
        .filter(|v| v.is_finite())
        .collect();
    let antts: Vec<f64> = outcomes
        .iter()
        .map(Outcome::antt)
        .filter(|v| v.is_finite())
        .collect();
    let sum = |i: usize| outcomes.iter().map(|o| o.words[i]).sum::<u64>();
    let (mut error_ns, mut adaptive_done) = (0u64, 0u64);
    for (scenario, o) in plan.scenarios().iter().zip(outcomes) {
        if scenario.selection.is_some_and(|s| s.is_adaptive()) {
            error_ns += o.words[ADAPTIVE_ERROR_NS];
            adaptive_done += o.words[ADAPTIVE_DONE];
        }
    }
    SimMetrics {
        p99_response_us: percentile(&p99, 50.0),
        antt: antts.iter().sum::<f64>() / antts.len() as f64,
        miss_rate: sum(MISSED) as f64 / sum(DEADLINE_TOTAL) as f64,
        estimate_error_us: ratio(error_ns, adaptive_done) / 1e3,
        digest: Digest::of(outcomes),
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer counts of one pass, summed over its scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCounts {
    /// Simulated events.
    pub events: u64,
    /// Thread blocks completed.
    pub blocks: u64,
    /// Preemptions requested.
    pub preemptions: u64,
    /// Preemptions completed.
    pub preemptions_done: u64,
    /// Blocks whose context was saved.
    pub blocks_saved: u64,
    /// Clamped (past-time) schedules.
    pub clamped: u64,
    /// Block busy time over block-slot time (`block_slots × end time`).
    pub busy_share: f64,
    /// Share of adaptive picks that chose context switching.
    pub adaptive_cs_share: f64,
    /// Open-arrival releases.
    pub released: u64,
    /// Shed releases over releases.
    pub shed_ratio: f64,
    /// Completed iterations.
    pub iterations: u64,
}

/// Sums the per-layer counts of one pass.
pub fn layer_counts(outcomes: &[Outcome], block_slots: u64) -> LayerCounts {
    let sum = |i: usize| outcomes.iter().map(|o| o.words[i]).sum::<u64>();
    let available_ns: u128 = outcomes
        .iter()
        .map(|o| block_slots as u128 * o.words[END_NS] as u128)
        .sum();
    let (cs, drain) = (sum(ADAPTIVE_CS), sum(ADAPTIVE_DRAIN));
    LayerCounts {
        events: sum(EVENTS),
        blocks: sum(BLOCKS),
        preemptions: sum(PREEMPTIONS),
        preemptions_done: sum(PREEMPTIONS_DONE),
        blocks_saved: sum(BLOCKS_SAVED),
        clamped: sum(CLAMPED),
        busy_share: sum(BUSY_NS) as f64 / available_ns as f64,
        adaptive_cs_share: ratio(cs, cs + drain),
        released: sum(RELEASED),
        shed_ratio: ratio(sum(SHED), sum(RELEASED)),
        iterations: sum(COMPLETED),
    }
}
