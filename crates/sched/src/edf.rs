//! EDF — the earliest-deadline-first baseline.
//!
//! The classical dynamic-priority real-time scheduler, transplanted onto the
//! paper's framework: the active kernel with the earliest absolute deadline
//! is served first, taking idle SMs and preempting kernels whose deadlines
//! are strictly later (kernels without a deadline count as infinitely late).
//! EDF is deliberately **cost-blind** — it consults no preemption-cost
//! estimate — which is exactly what makes it the baseline the context-aware
//! [`GcapsPolicy`](crate::GcapsPolicy) is compared against: every cycle EDF
//! spends on an unprofitable hand-over shows up as the gap between the two
//! policies' deadline-miss rates.

use crate::policy::{assign_idle_sms, select_victim, SchedulingPolicy};
use gpreempt_gpu::{ExecutionEngine, KsrIndex};
use gpreempt_types::{KernelLaunchId, SimTime, SmId};

/// The deadline used for ordering: kernels without one sort after every
/// kernel that has one.
fn deadline_or_max(engine: &ExecutionEngine, ksr: KsrIndex) -> SimTime {
    engine
        .kernel(ksr)
        .and_then(|k| k.deadline())
        .unwrap_or(SimTime::MAX)
}

/// The earliest-deadline-first scheduler.
#[derive(Debug, Default)]
pub struct EdfPolicy {
    /// Scratch for the deadline-ordered active queue, reused across hooks.
    order: Vec<KsrIndex>,
}

impl EdfPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        EdfPolicy::default()
    }

    /// Fills the scratch with the active kernels in ascending deadline
    /// order (ties broken by admission time, then slot index).
    fn order_by_deadline(&mut self, engine: &ExecutionEngine) {
        self.order.clear();
        self.order.extend(engine.active_kernels());
        self.order.sort_by_key(|&k| {
            let state = engine.kernel(k).expect("active kernel");
            (deadline_or_max(engine, k), state.admitted_at(), k.index())
        });
    }

    /// Finds a running SM whose current kernel has a strictly later
    /// deadline than `deadline`, preferring the latest-deadline victim
    /// (ties broken towards the latest-admitted kernel).
    fn pick_victim(&self, engine: &ExecutionEngine, deadline: SimTime) -> Option<SmId> {
        select_victim(engine, |engine, current| {
            let victim_deadline = deadline_or_max(engine, current);
            if victim_deadline <= deadline {
                return None;
            }
            let admitted = engine.kernel(current).expect("active kernel").admitted_at();
            Some((victim_deadline, admitted))
        })
    }

    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        self.order_by_deadline(engine);
        for i in 0..self.order.len() {
            let ksr = self.order[i];
            let Some(kernel) = engine.kernel(ksr) else {
                continue;
            };
            if !kernel.has_blocks_to_issue() {
                continue;
            }
            let deadline = deadline_or_max(engine, ksr);
            // EDF is work-conserving: the most urgent kernel takes what it
            // needs, later-deadline kernels backfill whatever is left.
            assign_idle_sms(now, engine, ksr, None);
            while let Some(kernel) = engine.kernel(ksr) {
                let needed = kernel.sms_needed().saturating_sub(engine.owned_sms(ksr));
                if needed == 0 {
                    break;
                }
                let Some(victim) = self.pick_victim(engine, deadline) else {
                    break;
                };
                if !engine.preempt_sm(now, victim, ksr) {
                    break;
                }
            }
        }
    }
}

impl SchedulingPolicy for EdfPolicy {
    fn name(&self) -> &'static str {
        "EDF"
    }

    fn on_kernel_admitted(&mut self, now: SimTime, _ksr: KsrIndex, engine: &mut ExecutionEngine) {
        self.schedule(now, engine);
    }

    fn on_sm_idle(&mut self, now: SimTime, _sm: SmId, engine: &mut ExecutionEngine) {
        self.schedule(now, engine);
    }

    fn on_kernel_finished(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _launch: KernelLaunchId,
        engine: &mut ExecutionEngine,
    ) {
        self.schedule(now, engine);
    }

    fn on_deadline_approaching(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _deadline: SimTime,
        engine: &mut ExecutionEngine,
    ) {
        self.schedule(now, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_launch, PolicyHarness};
    use gpreempt_gpu::{KernelLaunch, PreemptionMechanism};
    use gpreempt_types::RtSpec;

    fn rt_launch(
        id: u64,
        process: u32,
        blocks: u32,
        block_us: u64,
        deadline_us: u64,
    ) -> KernelLaunch {
        toy_launch(id, process, blocks, block_us).with_rt(
            RtSpec::implicit(SimTime::from_micros(deadline_us)),
            SimTime::ZERO,
        )
    }

    #[test]
    fn earliest_deadline_preempts_latest_deadline() {
        let mut h = PolicyHarness::new(EdfPolicy::new(), PreemptionMechanism::ContextSwitch);
        h.submit(rt_launch(0, 0, 2_000, 400, 1_000_000));
        h.run_for(SimTime::from_micros(50));
        h.submit(rt_launch(1, 1, 104, 20, 2_000));
        h.run_for(SimTime::from_micros(100));
        assert!(h.engine().stats().preemptions > 0);
        h.run_to_idle();
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        assert!(t(1) < t(0));
        assert!(
            t(1) < SimTime::from_micros(400),
            "beat the block tail: {}",
            t(1)
        );
    }

    #[test]
    fn kernels_without_deadlines_are_least_urgent_but_never_starved() {
        let mut h = PolicyHarness::new(EdfPolicy::new(), PreemptionMechanism::ContextSwitch);
        // A deadline-free kernel takes the GPU first.
        h.submit(toy_launch(0, 0, 520, 50));
        h.run_for(SimTime::from_micros(10));
        // A deadline kernel arrives and carves SMs out of it.
        h.submit(rt_launch(1, 1, 104, 20, 5_000));
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2, "both finish");
        assert!(h.engine().stats().preemptions > 0);
    }

    #[test]
    fn equal_deadlines_do_not_thrash() {
        let mut h = PolicyHarness::new(EdfPolicy::new(), PreemptionMechanism::ContextSwitch);
        h.submit(rt_launch(0, 0, 260, 50, 10_000));
        h.run_for(SimTime::from_micros(10));
        h.submit(rt_launch(1, 1, 260, 50, 10_000));
        h.run_for(SimTime::from_micros(20));
        // A strictly-later deadline is required to preempt, so two kernels
        // with the same deadline never steal from each other.
        assert_eq!(h.engine().stats().preemptions, 0);
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }
}
