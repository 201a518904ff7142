//! The traced run: per-layer metrics from in-memory spans.
//!
//! The plan is driven one scenario at a time through the same public calls
//! the sweep runner makes, with a span around each layer call: under every
//! `scenario` span sit `setup` (configuration, trace interning, simulator
//! construction), `simulator` (`Simulator::run_with`/`run_until_with`),
//! `metrics` (the fold) and `report` (the digest). The set-up phases sit
//! under `workload.build`, and engine replay rounds get spans of their own. The spans are written out as JSON
//! lines when the run ends. Each loop also times an untraced `run_fold`
//! pass of the same plan, for the dispatch, allocation and tracing-overhead
//! figures.

use crate::outcome::{self, ratio, Digest, Outcome};
use crate::replay::{self, Mix, ReplayStats};
use crate::timed::{self, SETUP_REPS};
use crate::workloads::{self, Bench, Kind};
use crate::{Metric, Report};
use gpreempt::sim::stats::percentile;
use gpreempt::sweep::{Scenario, SweepRunner};
use gpreempt::trace::TraceInterner;
use gpreempt::types::SimError;
use gpreempt::{SimWorkspace, SimulationRun, Simulator};
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    scenario: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`close`](Self::close).
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        scenario: Option<usize>,
    ) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, scenario)
    }

    fn close(&mut self, span: usize) -> Duration {
        let end = self.ns(Instant::now());
        let s = &mut self.spans[span];
        s.end_ns = end;
        Duration::from_nanos(end - s.start_ns)
    }

    /// Records a span whose bounds are already known.
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        scenario: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            scenario,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Count, total and self time (total minus time covered by child
    /// spans) per span name, in first-seen order.
    fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"scenario\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.scenario)
            )?;
        }
        out.flush()
    }
}

/// What one traced pass measured.
struct TracedPass {
    outcomes: Vec<Outcome>,
    wall: Duration,
    simulator: Duration,
    metrics: Duration,
    report: Duration,
}

/// Drives the plan one scenario at a time, tracing each layer call.
fn traced_pass(bench: &Bench, tracer: &mut Tracer, parent: usize) -> Result<TracedPass, SimError> {
    let plan = &bench.plan;
    let block_slots = workloads::block_slots(plan);
    let pass = tracer.open("pass.traced", Some(parent), None);
    let mut ws = SimWorkspace::new();
    let mut interner = TraceInterner::new();
    let mut outcomes = Vec::with_capacity(plan.len());
    let mut digest = Digest::default();
    let (mut simulator, mut metrics) = (Duration::ZERO, Duration::ZERO);
    for scenario in plan.scenarios() {
        let id = Some(scenario.id);
        let sc = tracer.open("scenario", Some(pass), id);

        let s = tracer.open("setup", Some(sc), id);
        let sim = Simulator::new(workloads::scenario_config(plan, scenario));
        let workload = scenario.workload.interned(&mut interner);
        tracer.close(s);

        let s = tracer.open("simulator", Some(sc), id);
        let run = workloads::simulate(&sim, Some(&mut ws), &workload, scenario)?;
        simulator += tracer.close(s);

        let s = tracer.open("metrics", Some(sc), id);
        let o = outcome::fold(scenario, run, &bench.aux[scenario.id], block_slots)?;
        metrics += tracer.close(s);

        let s = tracer.open("report", Some(sc), id);
        digest.push(&o);
        outcomes.push(o);
        tracer.close(s);

        tracer.close(sc);
    }
    let s = tracer.open("report.pass", Some(pass), None);
    let summary = outcome::summarize(plan, &outcomes);
    let report = tracer.close(s);
    let wall = tracer.close(pass);
    debug_assert_eq!(summary.digest, digest);
    Ok(TracedPass {
        outcomes,
        wall,
        simulator,
        metrics,
        report,
    })
}

/// Builds the workload, then alternates traced passes, untraced `run_fold`
/// passes and engine replay rounds until `seconds` have passed.
///
/// # Errors
///
/// Fails when a scenario fails to simulate.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, SimError> {
    let mut tracer = Tracer::new();
    let root = tracer.open("run", None, None);
    let setup = workloads::setup(kind, seed, SETUP_REPS)?;
    let bench = &setup.bench;
    let plan = &bench.plan;
    let phases = setup.phases;
    let s = tracer.record(
        "workload.build",
        phases.gen.0,
        phases.plan.1,
        Some(root),
        None,
    );
    tracer.record("trace.gen", phases.gen.0, phases.gen.1, Some(s), None);
    tracer.record(
        "sweep.isolated",
        phases.isolated.0,
        phases.isolated.1,
        Some(s),
        None,
    );
    tracer.record("sweep.plan", phases.plan.0, phases.plan.1, Some(s), None);

    let mut report = Report {
        attempted: plan.len(),
        ..Report::default()
    };
    if !setup.deterministic {
        report.fail(None, "repeated set-up built different plans");
    }
    let gpu = &plan.config().machine.gpu;
    let block_slots = workloads::block_slots(plan);
    let fold =
        |s: &Scenario, run: SimulationRun| outcome::fold(s, run, &bench.aux[s.id], block_slots);
    let runner = SweepRunner::new(1);
    let mix = Mix::new(
        &bench.pool,
        gpu,
        kind.replay_concurrency(),
        kind == Kind::Realtime,
    );
    let mut replay_stats = ReplayStats {
        timer_ns: replay::timer_overhead_ns(),
        ..ReplayStats::default()
    };
    let mut replay_blocks: Option<u64> = None;

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut traced: Vec<TracedPass> = Vec::new();
    let (mut untraced_walls, mut dispatch_us, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digest: Option<Digest> = None;
    loop {
        let pass = traced_pass(bench, &mut tracer, root)?;
        let traced_digest = Digest::of(&pass.outcomes);
        traced.push(pass);

        let s = tracer.open("pass.run_fold", Some(root), None);
        let folded = runner.run_fold(plan, &fold)?;
        let wall = tracer.close(s);
        let busy: Duration = folded.outcomes().iter().map(|o| o.wall).sum();
        untraced_walls.push(wall.as_secs_f64());
        dispatch_us.push((wall.saturating_sub(busy)).as_secs_f64() * 1e6 / plan.len() as f64);
        allocs.extend(folded.outcomes().iter().map(|o| o.allocs as f64));
        let untraced_digest = Digest::of(&folded.into_values());
        if untraced_digest != traced_digest {
            report.fail(None, "traced pass digest differs from the run_fold pass");
        }
        match first_digest {
            None => first_digest = Some(traced_digest),
            Some(d) if d != traced_digest => report.fail(None, "pass digests differ"),
            Some(_) => {}
        }

        let s = tracer.open("replay", Some(root), None);
        let blocks = replay::round(&mix, seed, &mut replay_stats);
        tracer.close(s);
        if replay_blocks.is_some_and(|b| b != blocks) {
            report.fail(
                None,
                "engine replay rounds completed different block counts",
            );
        }
        replay_blocks = Some(blocks);

        if started.elapsed() >= budget {
            break;
        }
    }
    tracer.close(root);

    let outcomes = &traced[0].outcomes;
    let summary = outcome::summarize(plan, outcomes);
    timed::check(bench, outcomes, &mut report);
    let counts = outcome::layer_counts(outcomes, block_slots);
    let n = plan.len() as f64;
    let passes = traced.len() as f64;
    let sum_secs = |f: fn(&TracedPass) -> Duration| -> f64 {
        traced.iter().map(|p| f(p).as_secs_f64()).sum::<f64>()
    };
    let median = |values: &[f64]| percentile(values, 50.0);
    let traced_wall = median(
        &traced
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    report.metrics = vec![
        Metric::new("trace.gen_ms", setup.gen_ms, "ms"),
        Metric::new("sweep.plan_ms", setup.plan_ms, "ms"),
        Metric::new("sweep.isolated_ms", setup.isolated_ms, "ms"),
        Metric::new("sweep.dispatch_us_per_scenario", median(&dispatch_us), "us"),
        Metric::new("sweep.allocs_per_scenario", median(&allocs), "count"),
        Metric::new(
            "simulator.ns_per_event",
            sum_secs(|p| p.simulator) * 1e9 / (counts.events as f64 * passes),
            "ns",
        ),
        Metric::new("simulator.events", counts.events as f64, "count"),
        Metric::new(
            "simulator.events_per_block",
            ratio(counts.events, counts.blocks),
            "ratio",
        ),
        Metric::new("sim.queue_ns_per_op", replay_stats.queue_ns_per_op(), "ns"),
        Metric::new(
            "gpu.handle_ns_per_event",
            replay_stats.handle_ns_per_event(),
            "ns",
        ),
        Metric::new("gpu.replay_ns_per_block", replay_stats.ns_per_block(), "ns"),
        Metric::new("sim.events_clamped", counts.clamped as f64, "count"),
        Metric::new("gpu.blocks_completed", counts.blocks as f64, "count"),
        Metric::new("gpu.preemptions", counts.preemptions as f64, "count"),
        Metric::new(
            "gpu.preemption_completion_ratio",
            ratio(counts.preemptions_done, counts.preemptions),
            "ratio",
        ),
        Metric::new("gpu.blocks_saved", counts.blocks_saved as f64, "count"),
        Metric::new("gpu.sm_busy_share", counts.busy_share, "ratio"),
        Metric::new("gpu.adaptive_cs_share", counts.adaptive_cs_share, "ratio"),
        Metric::new("host.released", counts.released as f64, "count"),
        Metric::new("host.shed_ratio", counts.shed_ratio, "ratio"),
        Metric::new("host.iterations", counts.iterations as f64, "count"),
        Metric::new(
            "metrics.fold_us_per_scenario",
            sum_secs(|p| p.metrics) * 1e6 / (n * passes),
            "us",
        ),
        Metric::new("report.ms", sum_secs(|p| p.report) * 1e3 / passes, "ms"),
        Metric::new(
            "trace_overhead_ratio",
            traced_wall / median(&untraced_walls),
            "ratio",
        ),
        Metric::new("sim_estimate_error_us", summary.estimate_error_us, "us"),
    ];

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", kind.name()));
    report.notes.push(format!(
        "plan: {} scenarios; {} traced passes, {} replay rounds ({} blocks each)",
        plan.len(),
        traced.len(),
        replay_stats.rounds,
        replay_blocks.unwrap_or(0)
    ));
    report.notes.push(format!(
        "{:<16} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, count, total, own) in tracer.self_times() {
        report
            .notes
            .push(format!("{name:<16} {count:>7} {total:>12.3} {own:>12.3}"));
    }
    match tracer.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    report.digest = first_digest.expect("at least one pass").to_string();
    Ok(report)
}
