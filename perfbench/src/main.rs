//! `perfbench` — the gpreempt simulator's benchmark.
//!
//! ```text
//! perfbench --workload <open_arrival|closed_loop|realtime> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run builds one workload's sweep plan from the seed and drives it
//! through the library's defaults on one sweep worker. `--trace 0` times
//! whole passes through `SweepRunner::run_fold` and prints the end-to-end
//! metrics; `--trace 1` drives the same plan one scenario at a time with
//! in-memory spans around every layer call, runs the engine/queue replay,
//! and prints the per-layer metrics. Both check the outputs and print an
//! `output_digest` over every fold value, equal between the two modes for
//! one seed. Host times are wall time; every `sim_*` number is simulated.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod outcome;
mod replay;
mod timed;
mod traced;
mod workloads;

use workloads::Kind;

// Counts allocations per thread, for `sweep.allocs_per_scenario`; forwards
// every request to the system allocator.
#[global_allocator]
static ALLOC: gpreempt::sim::CountingAlloc = gpreempt::sim::CountingAlloc::new();

/// The seed a run uses unless `--seed` is given.
const DEFAULT_SEED: u64 = 2014;
/// Measured seconds unless `--seconds` is given.
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage: perfbench --workload <open_arrival|closed_loop|realtime> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenarios attempted (one plan's worth).
    pub attempted: usize,
    /// Failed checks: the scenario id (when one is to blame) and what
    /// failed.
    pub failures: Vec<(Option<usize>, String)>,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Digest over every fold value of the plan.
    pub digest: String,
    /// Human-readable context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, scenario: Option<usize>, what: impl Into<String>) {
        self.failures.push((scenario, what.into()));
    }

    /// Scenarios with at least one failed check; a failure that names no
    /// scenario fails the whole plan.
    fn failed(&self) -> usize {
        if self.failures.iter().any(|(id, _)| id.is_none()) {
            return self.attempted;
        }
        let mut ids: Vec<usize> = self.failures.iter().filter_map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = args.kind.name();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    let result = if args.trace {
        traced::run(args.kind, args.seed, args.seconds)
    } else {
        timed::run(args.kind, args.seed, args.seconds)
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: workload {name} seed {} failed: {e}", args.seed);
            std::process::exit(1);
        }
    };
    let non_finite: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in non_finite {
        report.fail(None, format!("metric {name} is not finite"));
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (id, what) in &report.failures {
        let id = id.map_or("-".to_string(), |id| id.to_string());
        println!(
            "  FAIL workload={name} scenario={id} seed={}: {what}",
            args.seed
        );
    }
    let failed = report.failed();
    println!(
        "  failed_ratio {failed}/{} = {}",
        report.attempted,
        failed as f64 / report.attempted.max(1) as f64
    );
    println!("output_digest {name} {}", report.digest);

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        metrics.join(", ")
    );
}
