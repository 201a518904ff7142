//! The one way to run an experiment: the [`Experiment`] trait and its
//! generic driver.
//!
//! An experiment is three steps. [`plan`](Experiment::plan) enumerates its
//! scenario population (running the isolated-time phase through the shared
//! [`IsolatedRunCache`] first, when its metrics need the denominators);
//! [`fold`](Experiment::fold) condenses each finished simulation into a flat
//! [`Metrics`] record on the worker that ran it; and
//! [`aggregate`](Experiment::aggregate) turns the records, in scenario-id
//! order, into the experiment's typed results. [`run`] drives those steps
//! under every [`SweepExec`] mode — full, shard and merge — so the three
//! cannot drift apart, and [`run_suite`] walks the fixed, ordered table of
//! the six experiments `run_sweep` regenerates.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{
    config_fingerprint, ExperimentScale, IsolatedRunCache, IsolatedTimes,
};
use crate::experiments::{
    Fig2Sweep, MechanismSweep, PrioritySweep, RealtimeSweep, SaturationSweep, SpatialSweep,
};
use crate::report::TextTable;
use crate::simulator::{SimulationRun, Simulator};
use crate::sweep::{
    JsonlSink, Metrics, Scenario, SweepExec, SweepPlan, SweepRecord, SweepReport, SweepRunner,
    SweepTiming,
};
use gpreempt_gpu::PreemptionMechanism;
use gpreempt_trace::Workload;
use gpreempt_types::SimError;

/// One experiment of the evaluation: how to enumerate it, what to keep of
/// each simulation, and how to aggregate what was kept.
///
/// The driver builds the experiment with `Default`, calls `plan` once, then
/// `fold` once per scenario (concurrently, on the sweep's workers), then
/// `aggregate` once. `plan` stores whatever `fold` and `aggregate` need —
/// isolated times, workload identities, cell keys — in `self`.
pub trait Experiment: Sync {
    /// The experiment's name: its `--experiment` selector and the key of
    /// its records in shard checkpoints.
    const NAME: &'static str;
    /// The field names every [`fold`](Self::fold) output carries, in order:
    /// comma-separated values, then `|` and the series. A name ending in
    /// `_*` stands for an indexed family (`ntt_0`, `ntt_1`, …). Hashed into
    /// the shard schema fingerprint, so **edit it whenever the fold's
    /// output changes** and old checkpoints refuse to resume or merge.
    const SCHEMA: &'static str;
    /// The experiment's aggregated results.
    type Results;

    /// Enumerates the scenario population.
    ///
    /// # Errors
    ///
    /// Propagates isolated-phase simulation errors.
    fn plan(&mut self, ctx: &mut SweepCtx<'_>) -> Result<SweepPlan, SimError>;

    /// Condenses one finished scenario into its metrics record.
    ///
    /// # Errors
    ///
    /// Propagates metric-computation errors.
    fn fold(&self, scenario: &Scenario, run: &SimulationRun) -> Result<Metrics, SimError>;

    /// Aggregates the records of every scenario, in scenario-id order.
    ///
    /// # Errors
    ///
    /// A record missing a field `aggregate` reads.
    fn aggregate(self, metrics: Vec<Metrics>) -> Result<Self::Results, SimError>;
}

/// Everything experiment runs share: the base configuration and scale, the
/// workers, the isolated-run cache, the execution mode, and the optional
/// sink every scenario's record is spilled to as it completes.
///
/// One context serves any number of [`run`]s; experiments run under the
/// same context share their isolated runs through its cache.
#[derive(Debug)]
pub struct SweepCtx<'a> {
    /// The base configuration every scenario runs under (modulo its
    /// overrides).
    pub config: SimulatorConfig,
    /// The experiment population's size and workload-generation seed.
    pub scale: ExperimentScale,
    /// The workers scenarios run on; results are identical for every
    /// worker count.
    pub runner: SweepRunner,
    /// Isolated execution times shared across experiments.
    pub cache: IsolatedRunCache,
    /// Full, shard or merge execution.
    pub exec: SweepExec<'a>,
    /// Receives one [`SweepRecord`] per scenario (its fold metrics under
    /// the scenario's identity): in completion order in a full run, in
    /// scenario-id order in a merge, never in a shard run.
    pub spill: Option<&'a JsonlSink>,
    /// Wall-clock timing of the isolated phase of the experiment being
    /// planned.
    isolated: SweepTiming,
}

impl SweepCtx<'_> {
    /// A full-mode context on `jobs` workers (`0` = one per CPU) with a
    /// fresh cache and no spill sink.
    pub fn new(config: SimulatorConfig, scale: ExperimentScale, jobs: usize) -> Self {
        SweepCtx {
            config,
            scale,
            runner: SweepRunner::new(jobs),
            cache: IsolatedRunCache::new(),
            exec: SweepExec::Full,
            spill: None,
            isolated: SweepTiming::default(),
        }
    }

    /// Isolated execution times of every distinct benchmark of the given
    /// workloads.
    ///
    /// Benchmarks already in the cache for this configuration are served
    /// from it; the rest are enumerated (first-appearance order) into one
    /// plan and simulated on the context's workers, each exactly as
    /// [`Simulator::isolated_time`] does — a single-process FCFS run under
    /// the fixed context-switch mechanism — so the values are bit-identical
    /// to it. The phase's timing is charged to the experiment being
    /// planned.
    ///
    /// # Errors
    ///
    /// Propagates any simulation error.
    pub fn isolated_times<'w>(
        &mut self,
        workloads: impl IntoIterator<Item = &'w Workload>,
    ) -> Result<IsolatedTimes, SimError> {
        let iso_config = self
            .config
            .clone()
            .with_mechanism(PreemptionMechanism::ContextSwitch);
        let fingerprint = config_fingerprint(&iso_config);
        let mut plan = SweepPlan::new(iso_config);
        let mut times = IsolatedTimes::new();
        for workload in workloads {
            for process in workload.processes() {
                let name = process.benchmark.name();
                let planned = plan.scenarios().iter().any(|s| s.label == name);
                if planned || times.get(name).is_some() {
                    continue;
                }
                match self.cache.lookup(name, fingerprint) {
                    Some(t) => times.insert(name, t),
                    None => {
                        let isolated = Simulator::isolated_workload(&process.benchmark);
                        plan.push(Scenario::new("isolated", name, isolated, PolicyKind::Fcfs));
                    }
                }
            }
        }
        let results = self
            .runner
            .run_fold(&plan, &|_, run| Ok(Simulator::isolated_time_of(&run)))?;
        self.isolated = std::mem::take(&mut self.isolated).merged(results.timing(&plan));
        for (scenario, time) in plan.scenarios().iter().zip(results.into_values()) {
            self.cache.insert(scenario.label.clone(), fingerprint, time);
            times.insert(scenario.label.clone(), time);
        }
        Ok(times)
    }
}

/// Runs one experiment under the context's execution mode.
///
/// * **Full:** simulates every scenario, folding each on its worker (and
///   spilling its record when the context has a sink), then aggregates.
/// * **Shard:** simulates the shard's pending stripe and checkpoints each
///   fold output; returns `None` — a shard aggregates nothing.
/// * **Merge:** simulates nothing; reads the checkpointed fold outputs in
///   scenario-id order (spilling them, in that order, when the context has
///   a sink) and aggregates them exactly as a full run would.
///
/// The planning step runs in every mode. Returns the results with the
/// wall-clock timing of everything simulated (isolated phase included).
///
/// # Errors
///
/// Simulation, fold, checkpoint and sink errors; in merge mode, a scenario
/// missing from the shard set.
pub fn run<E: Experiment + Default>(
    ctx: &mut SweepCtx<'_>,
) -> Result<Option<(E::Results, SweepTiming)>, SimError> {
    let mut experiment = E::default();
    ctx.isolated = SweepTiming::default();
    let plan = experiment.plan(ctx)?;
    let isolated = std::mem::take(&mut ctx.isolated);
    let fold = |scenario: &Scenario, run: SimulationRun| {
        let metrics = experiment.fold(scenario, &run)?;
        debug_assert!(
            schema_matches(E::SCHEMA, &metrics),
            "{} fold emitted {metrics:?}, which its SCHEMA {:?} does not list",
            E::NAME,
            E::SCHEMA
        );
        Ok::<_, SimError>(metrics)
    };
    let (metrics, timing) = match ctx.exec {
        SweepExec::Full => {
            let spill = ctx.spill;
            let results = ctx.runner.run_fold(&plan, &|scenario, run| {
                let metrics = fold(scenario, run)?;
                if let Some(sink) = spill {
                    sink.append(&spill_record(scenario, &metrics))?;
                }
                Ok(metrics)
            })?;
            let timing = results.timing(&plan);
            (results.into_values(), timing)
        }
        SweepExec::Shard(session) => {
            let ids = session.pending_ids(E::NAME, plan.len());
            ctx.runner.run_fold_subset(&plan, &ids, &|scenario, run| {
                session.record(E::NAME, scenario.id, &fold(scenario, run)?)
            })?;
            return Ok(None);
        }
        SweepExec::Merge(merged) => {
            let mut metrics = Vec::with_capacity(plan.len());
            for scenario in plan.scenarios() {
                let value = merged.value(E::NAME, scenario.id)?;
                if let Some(sink) = ctx.spill {
                    sink.append(&spill_record(scenario, value))?;
                }
                metrics.push(value.clone());
            }
            (metrics, SweepTiming::default())
        }
    };
    let results = experiment.aggregate(metrics)?;
    Ok(Some((results, isolated.merged(timing))))
}

/// A scenario's fold metrics under its identity: the record a spill sink
/// receives.
fn spill_record(scenario: &Scenario, metrics: &Metrics) -> SweepRecord {
    SweepRecord {
        metrics: metrics.clone(),
        ..SweepRecord::new(
            &scenario.group,
            scenario.workload.name(),
            &scenario.label,
            scenario.size(),
        )
    }
}

/// Whether a metrics record carries exactly the fields `schema` lists (see
/// [`Experiment::SCHEMA`]).
fn schema_matches(schema: &str, metrics: &Metrics) -> bool {
    let (values, series) = schema.split_once('|').unwrap_or((schema, ""));
    names_match(values, metrics.values.iter().map(|(name, _)| name.as_str()))
        && names_match(series, metrics.series.iter().map(|(name, _)| name.as_str()))
}

/// Whether `names` are exactly the comma-separated `fields`, where a field
/// ending in `*` matches that prefix followed by `0`, `1`, … (possibly no
/// entries at all).
fn names_match<'a>(fields: &str, names: impl Iterator<Item = &'a str>) -> bool {
    let mut names = names.peekable();
    for field in fields.split(',').map(str::trim).filter(|f| !f.is_empty()) {
        if let Some(prefix) = field.strip_suffix('*') {
            let mut index = 0;
            while names
                .next_if(|name| name.strip_prefix(prefix) == Some(&index.to_string()))
                .is_some()
            {
                index += 1;
            }
        } else if names.next() != Some(field) {
            return false;
        }
    }
    names.next().is_none()
}

/// One experiment's rendered output: its report, its tables and its timing.
type Rendered = (SweepReport, Vec<TextTable>, SweepTiming);

/// One row of [`EXPERIMENTS`].
struct Entry {
    name: &'static str,
    schema: &'static str,
    /// Whether the `--out` sink receives one record per scenario as it
    /// completes; otherwise it receives the experiment's report records.
    streams: bool,
    run: fn(&mut SweepCtx<'_>) -> Result<Option<Rendered>, SimError>,
}

/// The table row of `E`; `run` is [`rendered`] for `E`.
const fn entry<E: Experiment>(
    streams: bool,
    run: fn(&mut SweepCtx<'_>) -> Result<Option<Rendered>, SimError>,
) -> Entry {
    Entry {
        name: E::NAME,
        schema: E::SCHEMA,
        streams,
        run,
    }
}

/// Runs `E` and renders its results into a report and tables.
fn rendered<E: Experiment + Default>(
    ctx: &mut SweepCtx<'_>,
    render: fn(&E::Results) -> (SweepReport, Vec<TextTable>),
) -> Result<Option<Rendered>, SimError> {
    Ok(run::<E>(ctx)?.map(|(results, timing)| {
        let (report, tables) = render(&results);
        (report, tables, timing)
    }))
}

/// The evaluation, in report order.
static EXPERIMENTS: [Entry; 6] = [
    entry::<Fig2Sweep>(false, |ctx| {
        rendered::<Fig2Sweep>(ctx, |r| (r.report(), vec![r.render()]))
    }),
    entry::<PrioritySweep>(false, |ctx| {
        rendered::<PrioritySweep>(ctx, |r| {
            let tables = vec![r.render_fig5(), r.render_fig6(false), r.render_fig6(true)];
            (r.report(), tables)
        })
    }),
    entry::<SpatialSweep>(false, |ctx| {
        rendered::<SpatialSweep>(ctx, |r| {
            let tables = vec![
                r.render_fig7a(),
                r.render_fig7b(),
                r.render_fig7c(),
                r.render_fig8(),
            ];
            (r.report(), tables)
        })
    }),
    entry::<MechanismSweep>(false, |ctx| {
        rendered::<MechanismSweep>(ctx, |r| (r.report(), vec![r.render()]))
    }),
    entry::<RealtimeSweep>(true, |ctx| {
        rendered::<RealtimeSweep>(ctx, |r| (r.report(), vec![r.render()]))
    }),
    entry::<SaturationSweep>(true, |ctx| {
        rendered::<SaturationSweep>(ctx, |r| (r.report(), vec![r.render()]))
    }),
];

/// The experiment names [`run_suite`] accepts besides `"all"`, in report
/// order.
pub fn experiment_names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|entry| entry.name)
}

/// FNV-1a fingerprint of every experiment's [`Experiment::SCHEMA`]: two
/// shard checkpoints inter-operate exactly when their binaries agreed on
/// every experiment's fold-output layout.
pub(crate) fn schema_fingerprint() -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in &EXPERIMENTS {
        let bytes = entry.name.bytes().chain([b':']);
        for byte in bytes.chain(entry.schema.bytes()).chain([b';']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// What [`run_suite`] produced.
#[derive(Debug, Default)]
pub struct SuiteOutput {
    /// Every selected experiment's report records, merged in table order
    /// under the scale's seed.
    pub report: SweepReport,
    /// Every selected experiment's rendered tables, in order.
    pub tables: Vec<String>,
    /// The merged wall-clock timing of everything simulated.
    pub timing: SweepTiming,
}

/// Runs the selected experiments — `"all"`, or one of
/// [`experiment_names`] — in table order under one context, so they share
/// its isolated-run cache.
///
/// When the context has a spill sink, the streaming experiments (realtime,
/// saturation) spill one record per scenario through [`run`]; every other
/// experiment appends its report records, numbered as in the combined
/// report, once it completes. `on_done` observes each experiment's timing
/// the moment it completes. In shard mode no experiment aggregates, so the
/// output stays empty.
///
/// # Errors
///
/// An unknown selection, or the first experiment's error.
pub fn run_suite(
    selection: &str,
    ctx: &mut SweepCtx<'_>,
    on_done: &dyn Fn(&str, &SweepTiming),
) -> Result<SuiteOutput, SimError> {
    if selection != "all" && !experiment_names().any(|name| name == selection) {
        return Err(SimError::internal(format!(
            "unknown experiment {selection:?}"
        )));
    }
    let mut out = SuiteOutput {
        report: SweepReport::new(ctx.scale.seed),
        ..SuiteOutput::default()
    };
    let sink = ctx.spill;
    for entry in EXPERIMENTS
        .iter()
        .filter(|entry| selection == "all" || entry.name == selection)
    {
        ctx.spill = sink.filter(|_| entry.streams);
        let ran = (entry.run)(ctx);
        ctx.spill = sink;
        let Some((report, tables, timing)) = ran? else {
            continue;
        };
        on_done(entry.name, &timing);
        out.tables.extend(tables.iter().map(TextTable::render));
        let first_new = out.report.len();
        out.report.merge(report);
        if let Some(sink) = sink.filter(|_| !entry.streams) {
            sink.append_all(&out.report.records()[first_new..])?;
        }
        out.timing = out.timing.merged(timing);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_types::SimTime;

    /// Plans an experiment, folds its first two scenarios and checks each
    /// record against the experiment's schema.
    fn fold_first_scenarios<E: Experiment + Default>(ctx: &mut SweepCtx<'_>) -> Vec<Metrics> {
        let mut experiment = E::default();
        let plan = experiment.plan(ctx).unwrap();
        let ids: Vec<usize> = (0..plan.len().min(2)).collect();
        let folded = ctx
            .runner
            .run_fold_subset(&plan, &ids, &|s, run| experiment.fold(s, &run))
            .unwrap()
            .into_values();
        assert_eq!(folded.len(), 2, "{}", E::NAME);
        for metrics in &folded {
            assert!(
                schema_matches(E::SCHEMA, metrics),
                "{} fold emitted {metrics:?}; its SCHEMA lists {:?}",
                E::NAME,
                E::SCHEMA
            );
        }
        folded
    }

    #[test]
    fn every_fold_emits_exactly_its_schema_fields() {
        let mut scale = ExperimentScale::quick()
            .with_benchmarks(["spmv", "sgemm"])
            .with_sizes(vec![2])
            .with_depth_trace(Some(SimTime::from_micros(100)));
        scale.random_workloads = 1;
        let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale, 2);
        fold_first_scenarios::<Fig2Sweep>(&mut ctx);
        fold_first_scenarios::<PrioritySweep>(&mut ctx);
        let spatial = fold_first_scenarios::<SpatialSweep>(&mut ctx);
        assert!(spatial.iter().all(|m| m.value("ntt_1").is_some()));
        fold_first_scenarios::<MechanismSweep>(&mut ctx);
        fold_first_scenarios::<RealtimeSweep>(&mut ctx);
        let saturation = fold_first_scenarios::<SaturationSweep>(&mut ctx);
        assert!(
            saturation.iter().all(|m| m.series.len() == 2),
            "depth tracing emits one series per process"
        );
    }

    #[test]
    fn schema_patterns_match_exact_and_indexed_names() {
        let m = Metrics::default()
            .with_value("antt", 1.0)
            .with_value("ntt_0", 1.0)
            .with_value("ntt_1", 1.0);
        assert!(schema_matches("antt,ntt_*", &m));
        assert!(!schema_matches("antt", &m), "extra values");
        assert!(!schema_matches("antt,ntt_*,stp", &m), "missing value");
        assert!(!schema_matches("ntt_*,antt", &m), "wrong order");
        let traced = m.clone().with_series("depth_0", vec![1]);
        assert!(schema_matches("antt,ntt_* | depth_*", &traced));
        assert!(
            schema_matches("antt,ntt_* | depth_*", &m),
            "families may be empty"
        );
        assert!(!schema_matches("antt,ntt_*", &traced), "unlisted series");
    }
}
