//! An outside-in replay of the engine and event-queue layers.
//!
//! The replay drives `ExecutionEngine::{submit, assign_sm, handle}` and
//! `EventQueue::{schedule, pop}` directly on a workload's kernel mix, with
//! the simulator's host, policy and metrics layers left out: a fixed number
//! of concurrent launch streams, each SM handed to the oldest kernel that
//! still has blocks to issue. Every `SAMPLE_EVERY`-th queue and engine call
//! is timed, so the per-call costs come with little timer overhead.
//! Real-time mixes carry deadlines, whose far-future deadline ticks give
//! the queue the multi-scale timestamps the real-time workload has.

use gpreempt::gpu::{EngineEvent, EngineParams, ExecutionEngine, KernelLaunch, PolicyHook};
use gpreempt::sim::{EventQueue, SimRng};
use gpreempt::trace::{BenchmarkTrace, KernelSpec, TraceOp};
use gpreempt::types::{
    CommandId, GpuConfig, KernelLaunchId, PreemptionConfig, Priority, ProcessId, RtSpec, SimTime,
    SmId,
};
use std::hint::black_box;
use std::time::Instant;

/// Time one call in this many.
const SAMPLE_EVERY: u64 = 16;
/// Thread blocks one replay round issues (summed over its launches).
const ROUND_BLOCKS: u64 = 300_000;
/// Relative deadline of a real-time launch, in kernel isolated times.
const DEADLINE_ISO: f64 = 8.0;

/// The launch stream of one replay round.
#[derive(Debug, Clone)]
pub struct Mix {
    launches: Vec<(KernelSpec, Option<RtSpec>)>,
    concurrency: usize,
    gpu: GpuConfig,
}

impl Mix {
    /// The kernels of `pool`'s applications in trace order, cycled until
    /// they add up to `ROUND_BLOCKS` blocks; with deadlines when
    /// `deadlines` is set.
    pub fn new(
        pool: &[BenchmarkTrace],
        gpu: &GpuConfig,
        concurrency: usize,
        deadlines: bool,
    ) -> Self {
        let kernels: Vec<&KernelSpec> = pool
            .iter()
            .flat_map(|b| {
                b.ops().iter().filter_map(|op| match op {
                    TraceOp::Launch { kernel, .. } => Some(&b.kernels()[*kernel]),
                    _ => None,
                })
            })
            .collect();
        let mut launches = Vec::new();
        let mut blocks = 0u64;
        for spec in kernels.iter().cycle() {
            if blocks >= ROUND_BLOCKS {
                break;
            }
            blocks += spec.n_blocks() as u64;
            let rt = deadlines.then(|| {
                let iso = spec.isolated_time_on(gpu, gpu.n_sms);
                RtSpec::implicit(iso.scale(DEADLINE_ISO).max(SimTime::from_micros(1)))
            });
            launches.push(((*spec).clone(), rt));
        }
        Mix {
            launches,
            concurrency: concurrency.max(1),
            gpu: gpu.clone(),
        }
    }
}

/// Accumulated replay measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Replay rounds run.
    pub rounds: u64,
    /// Thread blocks completed.
    pub blocks: u64,
    /// Whole-round wall time.
    pub wall_ns: u64,
    /// Timed queue calls (schedule and pop).
    pub queue_samples: u64,
    /// Summed time of the timed queue calls.
    pub queue_ns: u64,
    /// Timed `handle` calls.
    pub handle_samples: u64,
    /// Summed time of the timed `handle` calls.
    pub handle_ns: u64,
    /// Cost of one timer pair, subtracted from every sample.
    pub timer_ns: f64,
}

impl ReplayStats {
    /// Mean queue-call cost, timer cost removed.
    pub fn queue_ns_per_op(&self) -> f64 {
        (self.queue_ns as f64 / self.queue_samples as f64 - self.timer_ns).max(0.0)
    }

    /// Mean `handle` cost, timer cost removed.
    pub fn handle_ns_per_event(&self) -> f64 {
        (self.handle_ns as f64 / self.handle_samples as f64 - self.timer_ns).max(0.0)
    }

    /// Whole-replay wall time per completed block.
    pub fn ns_per_block(&self) -> f64 {
        self.wall_ns as f64 / self.blocks as f64
    }
}

/// Cost of one back-to-back `Instant` pair, in ns (median of batches).
pub fn timer_overhead_ns() -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut total = 0u64;
            for _ in 0..10_000 {
                let t = Instant::now();
                total += black_box(t.elapsed().as_nanos() as u64);
            }
            total as f64 / 10_000.0
        })
        .collect();
    gpreempt::sim::stats::percentile(&batches, 50.0)
}

/// Counts calls and times every `SAMPLE_EVERY`-th.
struct Sampler {
    calls: u64,
    samples: u64,
    ns: u64,
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            calls: 0,
            samples: 0,
            ns: 0,
        }
    }

    #[inline]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.samples += 1;
        r
    }
}

/// Runs one replay round of `mix` and adds its measurements to `stats`.
/// Returns the round's completed-block count, which is exact for a seed.
pub fn round(mix: &Mix, seed: u64, stats: &mut ReplayStats) -> u64 {
    let started = Instant::now();
    let mut engine = ExecutionEngine::new(
        mix.gpu.clone(),
        PreemptionConfig::default(),
        EngineParams::default(),
        SimRng::new(seed),
    );
    let mut queue: EventQueue<EngineEvent> = EventQueue::new();
    let mut queue_calls = Sampler::new();
    let mut handle_calls = Sampler::new();
    let mut scheduled = Vec::new();
    let mut hooks = Vec::new();
    let mut completions = Vec::new();
    let mut idle: Vec<SmId> = Vec::new();

    let launch = |i: usize, now: SimTime| {
        let (spec, rt) = &mix.launches[i];
        let l = KernelLaunch::new(
            KernelLaunchId::new(i as u64),
            CommandId::new(i as u64),
            ProcessId::new((i % mix.concurrency) as u32),
            Priority::NORMAL,
            spec.clone(),
        );
        match rt {
            Some(rt) => l.with_rt(*rt, now),
            None => l,
        }
    };
    let mut next = mix.concurrency.min(mix.launches.len());
    for i in 0..next {
        engine.submit(launch(i, SimTime::ZERO), SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    let mut reassign = true;
    loop {
        engine.drain_hooks_into(&mut hooks);
        for hook in hooks.drain(..) {
            match hook {
                PolicyHook::KernelFinished { .. } if next < mix.launches.len() => {
                    engine.submit(launch(next, now), now);
                    next += 1;
                }
                PolicyHook::KernelAdmitted(_) | PolicyHook::SmIdle(_) => reassign = true,
                _ => {}
            }
        }
        if reassign {
            reassign = false;
            idle.clear();
            idle.extend(engine.idle_sms());
            for &sm in &idle {
                let target = engine.active_kernels().find(|&k| {
                    engine
                        .kernel(k)
                        .is_some_and(|state| state.has_blocks_to_issue())
                });
                if let Some(k) = target {
                    engine.assign_sm(now, sm, k);
                }
            }
        }
        engine.drain_scheduled_into(&mut scheduled);
        for (t, ev) in scheduled.drain(..) {
            queue_calls.call(|| queue.schedule(t, ev));
        }
        engine.drain_completions_into(&mut completions);
        completions.clear();
        let Some((t, ev)) = queue_calls.call(|| queue.pop()) else {
            break;
        };
        now = t;
        handle_calls.call(|| engine.handle(t, ev));
    }
    let blocks = engine.stats().blocks_completed;
    stats.rounds += 1;
    stats.blocks += blocks;
    stats.wall_ns += started.elapsed().as_nanos() as u64;
    stats.queue_samples += queue_calls.samples;
    stats.queue_ns += queue_calls.ns;
    stats.handle_samples += handle_calls.samples;
    stats.handle_ns += handle_calls.ns;
    blocks
}
