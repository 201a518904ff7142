//! The timed run: end-to-end metrics with tracing off.

use crate::outcome::{self, Outcome, SimMetrics};
use crate::workloads::{self, Bench, Kind};
use crate::{Metric, Report};
use gpreempt::sim::stats::percentile;
use gpreempt::sweep::{Scenario, SweepRunner};
use gpreempt::types::SimError;
use gpreempt::{SimulationRun, Simulator};
use std::time::{Duration, Instant};

/// Set-up builds before the first pass. The timed run adds one more build
/// after every timed pass, so its set-up samples spread over the timed
/// section; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Scenarios the correctness gate re-simulates from scratch.
const GATE_SAMPLES: usize = 12;

/// Timed passes in a run of `seconds`: a function of the workload and the
/// budget alone, so the number of samples the minima below are taken over
/// does not depend on how fast the program is.
pub fn timed_passes(kind: Kind, seconds: u64) -> usize {
    ((seconds as f64 / kind.pass_seconds()) as usize).max(1)
}

/// Builds the workload, then runs [`timed_passes`] whole passes of its
/// plan through `SweepRunner::new(1).run_fold`, spends what is left of
/// `seconds` on untimed passes that only check the digest, and checks the
/// outputs.
///
/// # Errors
///
/// Fails when a scenario fails to simulate; the error names it.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, SimError> {
    let setup = workloads::setup(kind, seed, SETUP_REPS)?;
    let bench = &setup.bench;
    let plan = &bench.plan;
    let mut report = Report {
        attempted: plan.len(),
        ..Report::default()
    };
    if !setup.deterministic {
        report.fail(None, "repeated set-up built different plans");
    }
    let block_slots = workloads::block_slots(plan);
    let fold =
        |s: &Scenario, run: SimulationRun| outcome::fold(s, run, &bench.aux[s.id], block_slots);

    let runner = SweepRunner::new(1);
    let budget = Duration::from_secs(seconds);
    let passes = timed_passes(kind, seconds);
    // Each scenario's fastest wall over the timed passes, and the fastest
    // per-pass remainder outside the scenarios (dispatch and report).
    let mut best_ms = vec![f64::INFINITY; plan.len()];
    let mut best_rest_ms = f64::INFINITY;
    let mut pass_s: Vec<f64> = Vec::new();
    let mut first: Option<(Vec<Outcome>, SimMetrics)> = None;
    let mut setup_s = setup.totals_s.clone();
    let mut untimed = 0usize;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    loop {
        // The timed passes take turns on every CPU: co-tenant load on a
        // shared host can slow one CPU by half or more for a minute while
        // another runs at full speed, and the scenario minima below then
        // come from whichever ran uncontended. `run_fold` on one worker
        // runs on this thread.
        if pass_s.len() < passes && cpus > 1 {
            pin_current_thread(pass_s.len() % cpus);
        }
        let pass = Instant::now();
        let folded = runner
            .run_fold(plan, &fold)
            .map_err(|e| locate_failure(bench, e))?;
        let timed = pass_s.len() < passes;
        let mut scenarios_ms = 0.0;
        for o in folded.outcomes().iter().filter(|_| timed) {
            let ms = o.wall.as_secs_f64() * 1e3;
            best_ms[o.scenario_id] = best_ms[o.scenario_id].min(ms);
            scenarios_ms += ms;
        }
        let outcomes = folded.into_values();
        let sim = outcome::summarize(plan, &outcomes);
        if timed {
            let wall = pass.elapsed().as_secs_f64();
            best_rest_ms = best_rest_ms.min(wall * 1e3 - scenarios_ms);
            pass_s.push(wall);
        } else {
            untimed += 1;
        }
        match &first {
            None => first = Some((outcomes, sim)),
            Some((_, s0)) if s0.digest != sim.digest => {
                report.fail(
                    None,
                    format!("pass {} digest differs from pass 1", pass_s.len() + untimed),
                );
            }
            Some(_) => {}
        }
        if timed {
            let (rebuilt, phases) = workloads::build(kind, seed)?;
            setup_s.push(phases.total_s());
            if rebuilt.aux != bench.aux {
                report.fail(None, "repeated set-up built different plans");
            }
        }
        if pass_s.len() >= passes && started.elapsed() >= budget {
            break;
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let (outcomes, sim) = first.expect("at least one pass");

    check(bench, &outcomes, &mut report);

    // Host interference on a shared machine only ever slows a scenario
    // down, in phases of seconds; a scenario's fastest timed pass is its
    // uncontended cost. The best-case pass time is the sum of those
    // minima plus the fastest remainder: finer-grained than the fastest
    // whole pass, so a slow phase that covers part of every pass does not
    // set it.
    let events = outcome::layer_counts(&outcomes, block_slots).events;
    let best_pass_s = (best_ms.iter().sum::<f64>() + best_rest_ms.max(0.0)) / 1e3;
    let scenario_ms = best_ms;
    let n = scenario_ms.len();
    report.notes = vec![
        format!(
            "plan: {n} scenarios, {events} simulated events per pass; {passes} timed passes \
             ({} scenario samples) and {untimed} untimed digest-check passes in {timed_s:.3} s; \
             setup_s over {} set-ups",
            n * passes,
            setup_s.len(),
        ),
        format!(
            "scenario_ms_p50/p90 (interpolated) over the {n} scenarios' fastest walls in \
             {passes} passes ({} beyond p90); \
             events_per_s = events per pass / best-case pass time ({best_pass_s:.3} s)",
            n - (n * 9).div_ceil(10),
        ),
        format!(
            "pass walls (s): {}",
            pass_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "sim_estimate_error_us {:.6} us (also reported by --trace 1)",
            sim.estimate_error_us
        ),
    ];
    report.metrics = vec![
        Metric::new("events_per_s", events as f64 / best_pass_s, "1/s"),
        Metric::new("scenario_ms_p50", percentile(&scenario_ms, 50.0), "ms"),
        Metric::new("scenario_ms_p90", percentile(&scenario_ms, 90.0), "ms"),
        Metric::new("setup_s", percentile(&setup_s, 50.0), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("sim_p99_response_us", sim.p99_response_us, "us"),
        Metric::new("sim_antt", sim.antt, "ratio"),
        Metric::new("sim_miss_rate", sim.miss_rate, "ratio"),
    ];
    report.digest = sim.digest.to_string();
    Ok(report)
}

/// The correctness gate: every scenario's bookkeeping identities, and a
/// deterministic sample re-simulated on fresh simulator state, which must
/// match the reused-workspace result exactly.
pub fn check(bench: &Bench, outcomes: &[Outcome], report: &mut Report) {
    for (id, o) in outcomes.iter().enumerate() {
        for identity in o.violations() {
            report.fail(Some(id), format!("violates {identity}"));
        }
    }
    let plan = &bench.plan;
    let block_slots = workloads::block_slots(plan);
    let stride = (plan.len() / GATE_SAMPLES).max(1);
    for id in (0..plan.len()).step_by(stride).take(GATE_SAMPLES) {
        let scenario = &plan.scenarios()[id];
        let sim = Simulator::new(workloads::scenario_config(plan, scenario));
        let fresh = workloads::simulate(&sim, None, &scenario.workload, scenario)
            .and_then(|run| outcome::fold(scenario, run, &bench.aux[id], block_slots));
        match fresh {
            Ok(fresh) if fresh == outcomes[id] => {}
            Ok(_) => report.fail(
                Some(id),
                "a fresh Simulator::run differs from the reused-workspace result",
            ),
            Err(e) => report.fail(Some(id), format!("a fresh Simulator::run failed: {e}")),
        }
    }
}

/// Turns a failed pass into an error naming the failing scenario: the
/// first scenario that also fails on fresh simulator state.
fn locate_failure(bench: &Bench, error: SimError) -> SimError {
    let plan = &bench.plan;
    for scenario in plan.scenarios() {
        let sim = Simulator::new(workloads::scenario_config(plan, scenario));
        if let Err(e) = workloads::simulate(&sim, None, &scenario.workload, scenario) {
            return SimError::internal(format!(
                "scenario {} ({} {}) with seed {:?}: {e}",
                scenario.id,
                scenario.workload.name(),
                scenario.label,
                scenario.seed
            ));
        }
    }
    error
}

/// High-water resident set size of this process (MB), from
/// `/proc/self/status`; NaN where that is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the calling thread to CPU `cpu` through the raw
/// `sched_setaffinity` syscall, best effort: a refused pin leaves the
/// thread where it was. The benchmark carries its own copy because the
/// library's `pin_current_thread` is slated for deletion with the
/// `with_affinity` option.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; 16];
    let bit = cpu % (mask.len() * 64);
    mask[bit / 64] = 1 << (bit % 64);
    // SAFETY: sched_setaffinity(0 = calling thread, mask size, mask) only
    // reads `mask`, which outlives the call; rcx and r11 are clobbered by
    // `syscall`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => _, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
}

/// No pinning where the raw syscall path is not available.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_current_thread(_cpu: usize) {}
