//! Shared infrastructure of the experiment harnesses.

use crate::config::SimulatorConfig;
use crate::experiments::SweepCtx;
use crate::sweep::{Metrics, Scenario, SweepPlan};
use gpreempt_sim::SimRng;
use gpreempt_trace::{parboil, BenchmarkTrace, Workload, WorkloadGenerator};
use gpreempt_types::{SimError, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How big an experiment to run.
///
/// The paper simulates workloads of 2, 4, 6 and 8 processes drawn from ten
/// Parboil benchmarks, replaying every application until each has completed
/// at least three executions. Running that full population takes minutes of
/// wall-clock time in release mode, so the harness also offers a `quick`
/// preset (fewer workloads, fewer replays, a subset of benchmarks) that
/// preserves the qualitative shape of every figure and is what the examples
/// and tests use.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Workload sizes (number of co-scheduled processes).
    pub workload_sizes: Vec<usize>,
    /// For the prioritisation experiments: how many times each benchmark
    /// appears as the high-priority process per workload size.
    pub reps_per_benchmark: usize,
    /// For the spatial-sharing experiments: how many random workloads per
    /// workload size.
    pub random_workloads: usize,
    /// Replay target: completed executions required of every process.
    pub min_completions: u32,
    /// Seed for workload generation.
    pub seed: u64,
    /// Restrict the benchmark pool to these names (`None` = all ten).
    pub benchmarks: Option<Vec<String>>,
    /// Sample per-process queue-depth traces at this fixed interval in the
    /// open-arrival experiments (`None`, the default, keeps tracing off and
    /// reports byte-identical to the pre-trace format).
    pub depth_trace: Option<SimTime>,
}

impl ExperimentScale {
    /// The evaluation scale of the paper: all ten benchmarks, 2/4/6/8
    /// process workloads, one high-priority appearance per benchmark, 20
    /// random workloads per size, three completed executions per process.
    pub fn paper() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4, 6, 8],
            reps_per_benchmark: 1,
            random_workloads: 20,
            min_completions: 3,
            seed: 2014,
            benchmarks: None,
            depth_trace: None,
        }
    }

    /// A reduced scale for tests, examples and quick runs: the five
    /// shortest benchmarks, 2- and 4-process workloads, single replays.
    pub fn quick() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4],
            reps_per_benchmark: 1,
            random_workloads: 4,
            min_completions: 1,
            seed: 2014,
            benchmarks: Some(
                ["spmv", "sgemm", "mri-q", "histo", "cutcp"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            ),
            depth_trace: None,
        }
    }

    /// A middle ground used by the default `cargo bench` harness: every
    /// benchmark and all four workload sizes, but fewer random workloads and
    /// a single completed execution per process, so the whole harness runs
    /// in minutes rather than tens of minutes.
    pub fn bench() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4, 6, 8],
            reps_per_benchmark: 1,
            random_workloads: 6,
            min_completions: 1,
            seed: 2014,
            benchmarks: None,
            depth_trace: None,
        }
    }

    /// Sets the depth-trace sampling interval (a zero interval disables
    /// tracing, same as `None`).
    #[must_use]
    pub fn with_depth_trace(mut self, interval: Option<SimTime>) -> Self {
        self.depth_trace = interval.filter(|t| !t.is_zero());
        self
    }

    /// Sets the benchmark subset.
    #[must_use]
    pub fn with_benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the workload sizes.
    #[must_use]
    pub fn with_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.workload_sizes = sizes;
        self
    }

    /// The benchmark pool this scale draws from.
    pub fn suite(&self, config: &SimulatorConfig) -> Vec<BenchmarkTrace> {
        let gpu = &config.machine.gpu;
        match &self.benchmarks {
            None => parboil::suite(gpu),
            Some(names) => names
                .iter()
                .map(|n| {
                    parboil::benchmark(n, gpu)
                        .unwrap_or_else(|| panic!("unknown benchmark {n} in experiment scale"))
                })
                .collect(),
        }
    }

    /// A workload generator over this scale's benchmark pool.
    pub fn generator(&self, config: &SimulatorConfig) -> WorkloadGenerator {
        WorkloadGenerator::new(self.suite(config), SimRng::new(self.seed))
    }

    /// Applies the replay target to a generated workload.
    pub fn finalize(&self, workload: Workload) -> Workload {
        workload.with_min_completions(self.min_completions)
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::bench()
    }
}

/// Two-sided 97.5 % Student-t critical values for 1–10 degrees of freedom;
/// the small replicate counts the sweep harnesses use (3 seeds → df = 2 →
/// 4.303) are far from the normal regime, where z = 1.96 would understate
/// the interval by more than 2×.
const T_975: [f64; 10] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
];

/// Half-width of the 95 % confidence interval of the mean, using the
/// Student-t critical value for the sample's degrees of freedom (normal
/// 1.96 beyond df = 10); zero for fewer than two samples.
pub fn ci95(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let df = values.len() - 1;
    let t = T_975.get(df - 1).copied().unwrap_or(1.96);
    t * gpreempt_sim::stats::stddev(values) / (values.len() as f64).sqrt()
}

/// A drawn workload population with each workload's isolated times: the
/// planned state of the experiments that run every workload under each
/// configuration of a fixed list (priority, spatial, mechanism).
#[derive(Debug, Default)]
pub(crate) struct Population {
    /// `(size, workload)`, in enumeration order.
    pub workloads: Vec<(usize, Workload)>,
    /// The isolated times of each workload's processes.
    pub isolated: Vec<Vec<SimTime>>,
    /// The scale's workload sizes.
    pub sizes: Vec<usize>,
    /// The scale's workload-generation seed (the plan seed).
    pub seed: u64,
}

impl Population {
    /// Draws `draw(generator, size)` for every workload size of the
    /// context's scale, applies the scale's replay target, and measures the
    /// isolated times.
    ///
    /// # Errors
    ///
    /// Propagates isolated-phase simulation errors.
    pub fn draw(
        ctx: &mut SweepCtx<'_>,
        mut draw: impl FnMut(&mut WorkloadGenerator, usize) -> Vec<Workload>,
    ) -> Result<Self, SimError> {
        let scale = &ctx.scale;
        let mut generator = scale.generator(&ctx.config);
        let mut workloads = Vec::new();
        for &size in &scale.workload_sizes {
            for workload in draw(&mut generator, size) {
                workloads.push((size, scale.finalize(workload)));
            }
        }
        let (sizes, seed) = (scale.workload_sizes.clone(), scale.seed);
        let times = ctx.isolated_times(workloads.iter().map(|(_, w)| w))?;
        let isolated = workloads
            .iter()
            .map(|(_, w)| times.times_for(w))
            .collect::<Result<_, _>>()?;
        Ok(Population {
            workloads,
            isolated,
            sizes,
            seed,
        })
    }

    /// The plan: `scenarios(workload)` for every workload, in order. Each
    /// workload contributes the same number of scenarios, so scenario `id`
    /// belongs to workload `id / per_workload`.
    pub fn plan<I: IntoIterator<Item = Scenario>>(
        &self,
        config: &SimulatorConfig,
        scenarios: impl Fn(&Workload) -> I,
    ) -> SweepPlan {
        let mut plan = SweepPlan::new(config.clone()).with_seed(self.seed);
        for (_, workload) in &self.workloads {
            for scenario in scenarios(workload) {
                plan.push(scenario);
            }
        }
        plan
    }
}

/// Mean and 95 % CI half-width of one named metric across replicate fold
/// records (NaN where a record lacks it).
pub(crate) fn replicate_stat(points: &[Metrics], name: &str) -> (f64, f64) {
    let values: Vec<f64> = points
        .iter()
        .map(|p| p.value(name).unwrap_or(f64::NAN))
        .collect();
    (gpreempt_sim::stats::mean(&values), ci95(&values))
}

/// Per-benchmark isolated execution times (the denominator of every
/// normalized metric), as the isolated phase
/// ([`SweepCtx::isolated_times`](crate::experiments::SweepCtx::isolated_times))
/// computes them for one experiment.
#[derive(Debug, Default)]
pub struct IsolatedTimes {
    times: HashMap<String, SimTime>,
}

impl IsolatedTimes {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of benchmarks cached so far.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Inserts a precomputed isolated time.
    pub fn insert(&mut self, benchmark: impl Into<String>, time: SimTime) {
        self.times.insert(benchmark.into(), time);
    }

    /// The cached isolated time of a benchmark, if present.
    pub fn get(&self, benchmark: &str) -> Option<SimTime> {
        self.times.get(benchmark).copied()
    }

    /// Isolated times of every process of a workload, in process order,
    /// from the cache alone (no lazy simulation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWorkload`] if any benchmark is missing
    /// from the cache — the isolated sweep phase did not cover the
    /// workload.
    pub fn times_for(&self, workload: &Workload) -> Result<Vec<SimTime>, SimError> {
        workload
            .processes()
            .iter()
            .map(|p| {
                self.get(p.benchmark.name()).ok_or_else(|| {
                    SimError::invalid_workload(format!(
                        "no isolated time cached for benchmark {}",
                        p.benchmark.name()
                    ))
                })
            })
            .collect()
    }
}

/// A sweep-level memo of isolated-execution times, shared **across**
/// experiments.
///
/// Entries are keyed by `(benchmark name, configuration fingerprint)`,
/// where the fingerprint covers the machine description, the engine
/// parameters and the RNG seed of the (context-switch-pinned) configuration
/// the isolated run would execute under — everything that can influence the
/// simulated time. Two experiments that share a base configuration
/// therefore share isolated runs: `run_sweep --experiment all` computes
/// each distinct isolated scenario exactly once instead of once per
/// experiment.
///
/// The cache is `Sync` (a mutex around the map, atomic hit/miss counters);
/// a [`SweepCtx`] owns one for all the experiments run under it.
#[derive(Debug, Default)]
pub struct IsolatedRunCache {
    /// Fingerprint → (benchmark name → isolated time). The nesting lets
    /// lookups borrow the benchmark name (`get(benchmark)` on the inner
    /// map) instead of building an owned tuple key per probe.
    entries: Mutex<HashMap<u64, HashMap<String, SimTime>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl IsolatedRunCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached isolated time of `benchmark` under the fingerprinted
    /// configuration, if present. Counts a hit or a miss.
    pub fn lookup(&self, benchmark: &str, fingerprint: u64) -> Option<SimTime> {
        let entries = self.entries.lock().expect("isolated cache poisoned");
        match entries.get(&fingerprint).and_then(|m| m.get(benchmark)) {
            Some(&t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed isolated time.
    pub fn insert(&self, benchmark: impl Into<String>, fingerprint: u64, time: SimTime) {
        self.entries
            .lock()
            .expect("isolated cache poisoned")
            .entry(fingerprint)
            .or_default()
            .insert(benchmark.into(), time);
    }

    /// Number of cached isolated runs.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("isolated cache poisoned")
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a simulation so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A deterministic fingerprint of everything in a configuration that can
/// influence a simulation's outcome (machine, engine parameters, transfer
/// policy, seed, event budget), used as the cache key component of
/// [`IsolatedRunCache`]. FNV-1a over the configuration's debug rendering:
/// stable within a process, which is all a per-invocation cache needs.
pub fn config_fingerprint(config: &SimulatorConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let text = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        config.machine, config.engine, config.transfer_policy, config.seed, config.max_events
    );
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Arithmetic mean of an iterator of values; NaN when empty (rendered as
/// `-` in tables and `null` in JSON).
pub fn mean_of<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    gpreempt_sim::stats::mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SweepCtx;
    use gpreempt_trace::{parboil, ProcessSpec};
    use gpreempt_types::GpuConfig;

    #[test]
    fn scales_have_expected_shapes() {
        let paper = ExperimentScale::paper();
        assert_eq!(paper.workload_sizes, vec![2, 4, 6, 8]);
        assert_eq!(paper.min_completions, 3);
        assert!(paper.benchmarks.is_none());

        let quick = ExperimentScale::quick();
        assert!(quick.random_workloads < paper.random_workloads);
        assert!(quick.benchmarks.is_some());

        let bench = ExperimentScale::default();
        assert_eq!(bench, ExperimentScale::bench());
    }

    #[test]
    fn suite_respects_benchmark_subset() {
        let config = SimulatorConfig::default();
        let scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm"]);
        let suite = scale.suite(&config);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name(), "spmv");
        let full = ExperimentScale::paper().suite(&config);
        assert_eq!(full.len(), parboil::BENCHMARK_NAMES.len());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let config = SimulatorConfig::default();
        let scale = ExperimentScale::quick().with_benchmarks(["nonsense"]);
        let _ = scale.suite(&config);
    }

    /// The isolated phase simulates each distinct benchmark once per
    /// context, however often workloads repeat it; later lookups hit.
    #[test]
    fn isolated_cache_deduplicates() {
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let workload = Workload::new(
            "twice",
            vec![ProcessSpec::new(spmv.clone()), ProcessSpec::new(spmv)],
        );
        let mut ctx = SweepCtx::new(SimulatorConfig::default(), ExperimentScale::quick(), 1);
        let first = ctx.isolated_times([&workload, &workload]).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!((ctx.cache.len(), ctx.cache.misses()), (1, 1));
        let again = ctx.isolated_times([&workload]).unwrap();
        assert_eq!(again.times_for(&workload), first.times_for(&workload));
        assert_eq!((ctx.cache.misses(), ctx.cache.hits()), (1, 1));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean_of([1.0, 3.0]), 2.0);
        assert!(mean_of(std::iter::empty()).is_nan());
    }

    #[test]
    fn times_for_reports_missing_benchmarks() {
        let gpu = GpuConfig::default();
        let workload = Workload::new(
            "w",
            vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
        );
        let mut cache = IsolatedTimes::new();
        assert!(cache.times_for(&workload).is_err());
        cache.insert("spmv", SimTime::from_micros(5));
        assert_eq!(cache.get("spmv"), Some(SimTime::from_micros(5)));
        assert_eq!(
            cache.times_for(&workload).unwrap(),
            vec![SimTime::from_micros(5)]
        );
    }
}
