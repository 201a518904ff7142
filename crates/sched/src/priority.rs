//! Priority-queue schedulers: non-preemptive (NPQ) and preemptive (PPQ).
//!
//! Both schedulers always favour the highest-priority kernel (§4.2). NPQ
//! waits for SMs to become free; PPQ uses the engine's preemption mechanism
//! to take SMs away from lower-priority kernels. PPQ comes in two flavours
//! (§4.3): *exclusive access*, where low-priority kernels are kept off the
//! execution engine while any high-priority kernel is active, and *shared
//! access*, where leftover SMs are handed to low-priority kernels
//! (back-to-back execution), at the cost of preempting them again shortly
//! after.

use crate::policy::{assign_idle_sms, SchedulingPolicy};
use gpreempt_gpu::{ExecutionEngine, KsrIndex, SmState};
use gpreempt_types::{KernelLaunchId, Priority, SimTime, SmId};

/// Fills `out` with the active kernels sorted by descending priority,
/// breaking ties by admission time (oldest first). The caller owns the
/// buffer so the per-hook scheduling path reuses one allocation.
fn order_by_priority(engine: &ExecutionEngine, out: &mut Vec<KsrIndex>) {
    out.clear();
    out.extend(engine.active_kernels());
    out.sort_by_key(|&k| {
        let state = engine.kernel(k).expect("active kernel");
        (
            std::cmp::Reverse(state.launch().priority),
            state.admitted_at(),
            k.index(),
        )
    });
}

/// The highest priority among active, unfinished kernels.
fn top_active_priority(engine: &ExecutionEngine) -> Option<Priority> {
    engine
        .active_kernels()
        .filter_map(|k| engine.kernel(k))
        .filter(|k| !k.is_finished())
        .map(|k| k.launch().priority)
        .max()
}

/// Non-preemptive priority-queues scheduler.
///
/// Idle SMs are always given to the highest-priority kernel that still has
/// thread blocks to issue; running kernels are never disturbed.
#[derive(Debug, Default)]
pub struct NpqPolicy {
    /// Scratch for the priority-ordered active queue, reused across hooks.
    order: Vec<KsrIndex>,
}

impl NpqPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        NpqPolicy::default()
    }

    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        order_by_priority(engine, &mut self.order);
        for i in 0..self.order.len() {
            let ksr = self.order[i];
            if engine.first_idle_sm().is_none() {
                break;
            }
            assign_idle_sms(now, engine, ksr, None);
        }
    }
}

impl SchedulingPolicy for NpqPolicy {
    fn name(&self) -> &'static str {
        "NPQ"
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
}

/// Access mode of the [`PpqPolicy`] (§4.3, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PpqAccess {
    /// While a high-priority kernel is active, no lower-priority kernel is
    /// scheduled even if SMs are idle.
    #[default]
    Exclusive,
    /// Leftover SMs are given to lower-priority kernels (modelled after the
    /// back-to-back scheduling of current GPUs).
    Shared,
}

/// Preemptive priority-queues scheduler.
///
/// The highest-priority kernel with work gets as many SMs as it can use; if
/// idle SMs are not enough, SMs running lower-priority kernels are preempted
/// using the engine's preemption mechanism.
#[derive(Debug, Default)]
pub struct PpqPolicy {
    access: PpqAccess,
    /// Scratch for the priority-ordered active queue, reused across hooks.
    order: Vec<KsrIndex>,
}

impl PpqPolicy {
    /// Creates a PPQ scheduler with exclusive access for the high-priority
    /// process.
    pub fn exclusive() -> Self {
        PpqPolicy {
            access: PpqAccess::Exclusive,
            order: Vec::new(),
        }
    }

    /// Creates a PPQ scheduler that backfills idle SMs with low-priority
    /// kernels.
    pub fn shared() -> Self {
        PpqPolicy {
            access: PpqAccess::Shared,
            order: Vec::new(),
        }
    }

    /// The configured access mode.
    pub fn access(&self) -> PpqAccess {
        self.access
    }

    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        order_by_priority(engine, &mut self.order);
        let top_priority = match top_active_priority(engine) {
            Some(p) => p,
            None => return,
        };
        for i in 0..self.order.len() {
            let ksr = self.order[i];
            let Some(kernel) = engine.kernel(ksr) else {
                continue;
            };
            let priority = kernel.launch().priority;
            if !kernel.has_blocks_to_issue() {
                continue;
            }
            if self.access == PpqAccess::Exclusive && priority < top_priority {
                // Lower-priority kernels stay off the engine while any
                // higher-priority kernel is still active.
                break;
            }
            // First soak up idle SMs.
            assign_idle_sms(now, engine, ksr, None);
            // Then, if this kernel outranks running kernels and still needs
            // SMs, preempt the lowest-priority victims.
            while let Some(kernel) = engine.kernel(ksr) {
                let needed = kernel.sms_needed().saturating_sub(engine.owned_sms(ksr));
                if needed == 0 {
                    break;
                }
                let Some(victim) = self.pick_victim(engine, priority) else {
                    break;
                };
                if !engine.preempt_sm(now, victim, ksr) {
                    break;
                }
            }
        }
    }

    /// Finds a running SM whose current kernel has a priority strictly lower
    /// than `priority`, preferring the lowest-priority victim.
    fn pick_victim(&self, engine: &ExecutionEngine, priority: Priority) -> Option<SmId> {
        let mut best: Option<(Priority, SimTime, SmId)> = None;
        for sm in engine.sm_ids() {
            let status = engine.sm(sm);
            if status.state() != SmState::Running {
                continue;
            }
            let Some(current) = status.current_kernel() else {
                continue;
            };
            let Some(kernel) = engine.kernel(current) else {
                continue;
            };
            let victim_priority = kernel.launch().priority;
            if victim_priority >= priority {
                continue;
            }
            let key = (victim_priority, kernel.admitted_at(), sm);
            let better = match &best {
                None => true,
                Some((bp, bt, _)) => {
                    victim_priority < *bp || (victim_priority == *bp && kernel.admitted_at() > *bt)
                }
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, sm)| sm)
    }
}

impl SchedulingPolicy for PpqPolicy {
    fn name(&self) -> &'static str {
        match self.access {
            PpqAccess::Exclusive => "PPQ-exclusive",
            PpqAccess::Shared => "PPQ-shared",
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_launch, toy_launch_with_priority, PolicyHarness};
    use gpreempt_gpu::PreemptionMechanism;
    use gpreempt_types::SimTime;

    /// With NPQ the high-priority kernel waits for resident blocks to finish
    /// naturally; with PPQ (context switch) it starts almost immediately.
    #[test]
    fn ppq_starts_high_priority_sooner_than_npq() {
        let finish_hp = |policy: Box<dyn SchedulingPolicy>| -> SimTime {
            let mut h = PolicyHarness::new_boxed(policy, PreemptionMechanism::ContextSwitch.into());
            // A long low-priority kernel occupies the GPU...
            h.submit(toy_launch(0, 0, 2_000, 400));
            h.run_for(SimTime::from_micros(50));
            // ... then a short high-priority kernel arrives.
            h.submit(toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH));
            h.run_to_idle();
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
                .unwrap()
                .finished_at
        };
        let npq = finish_hp(Box::new(NpqPolicy::new()));
        let ppq = finish_hp(Box::new(PpqPolicy::exclusive()));
        assert!(
            ppq < npq,
            "PPQ should finish the high-priority kernel earlier: ppq={ppq} npq={npq}"
        );
        // NPQ has to wait ~400us for resident blocks; PPQ preempts within
        // tens of microseconds.
        assert!(ppq < SimTime::from_micros(200), "ppq={ppq}");
        assert!(npq > SimTime::from_micros(400), "npq={npq}");
    }

    #[test]
    fn npq_never_preempts_but_prioritizes_idle_sms() {
        let mut h = PolicyHarness::new(NpqPolicy::new(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 300, 50));
        h.run_for(SimTime::from_micros(10));
        h.submit(toy_launch_with_priority(1, 1, 50, 10, Priority::HIGH));
        h.submit(toy_launch(2, 2, 50, 10));
        h.run_to_idle();
        assert_eq!(h.engine().stats().preemptions, 0);
        let done = h.completions();
        let t = |id: u64| {
            done.iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        // The high-priority late arrival still beats the equal-priority one.
        assert!(t(1) <= t(2));
    }

    #[test]
    fn exclusive_ppq_keeps_low_priority_off_the_gpu() {
        let mut h = PolicyHarness::new(PpqPolicy::exclusive(), PreemptionMechanism::ContextSwitch);
        // High-priority kernel that cannot fill the GPU (needs 2 SMs).
        h.submit(toy_launch_with_priority(0, 0, 16, 200, Priority::HIGH));
        // Low-priority kernel that would love the 11 idle SMs.
        h.submit(toy_launch(1, 1, 88, 10));
        h.run_for(SimTime::from_micros(50));
        // While the high-priority kernel is active, the low-priority kernel
        // must not have started.
        let lp_started = h
            .engine()
            .active_kernels()
            .filter_map(|k| h.engine().kernel(k))
            .any(|k| k.launch().process == gpreempt_types::ProcessId::new(1) && k.has_started());
        assert!(!lp_started, "exclusive access violated");
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }

    #[test]
    fn shared_ppq_backfills_idle_sms() {
        let mut h = PolicyHarness::new(PpqPolicy::shared(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch_with_priority(0, 0, 16, 200, Priority::HIGH));
        h.submit(toy_launch(1, 1, 88, 10));
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        // With shared access the low-priority kernel runs on the 11 idle SMs
        // and finishes long before the 200us high-priority blocks do.
        assert!(
            t(1) < t(0),
            "low-priority kernel should backfill: {} vs {}",
            t(1),
            t(0)
        );
        assert!(t(1) < SimTime::from_micros(60));
    }

    #[test]
    fn ppq_with_draining_waits_for_thread_blocks() {
        // Same scenario as the NPQ/PPQ comparison but with the draining
        // mechanism: the hand-over happens at a thread-block boundary, so the
        // high-priority kernel starts later than with context switch but
        // earlier than with no preemption at all.
        let finish_hp = |mechanism: PreemptionMechanism| -> SimTime {
            let mut h = PolicyHarness::new(PpqPolicy::exclusive(), mechanism);
            h.submit(toy_launch(0, 0, 2_000, 400));
            h.run_for(SimTime::from_micros(50));
            h.submit(toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH));
            h.run_to_idle();
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
                .unwrap()
                .finished_at
        };
        let cs = finish_hp(PreemptionMechanism::ContextSwitch);
        let drain = finish_hp(PreemptionMechanism::Draining);
        assert!(
            cs < drain,
            "context switch should be faster: cs={cs} drain={drain}"
        );
        // Draining still beats waiting for the whole 400us block tail plus
        // the remaining waves of the low-priority kernel.
        assert!(drain < SimTime::from_micros(600), "drain={drain}");
    }
}
