//! GCAPS — GPU Context-Aware Preemptive Scheduling (Wang et al. 2024).
//!
//! GCAPS generalises the preemptive priority-queues scheduler with the two
//! ingredients the real-time literature adds on top of the paper's
//! framework:
//!
//! * **urgency** — kernels are ordered by priority first (for real-time
//!   processes this is the criticality-derived priority) and, within a
//!   priority level, by *absolute deadline*: the kernel closest to its
//!   deadline is served first, and may preempt equal-priority kernels whose
//!   deadlines are strictly later;
//! * **preemption-cost awareness** — before taking an SM away, the policy
//!   consults the engine's [`PreemptionCostView`] (the same online
//!   remaining-time estimates the adaptive mechanism selector acts on) and
//!   preempts only when the expected latency is worth paying: within the
//!   configured latency budget, and — for the *equal-priority deadline
//!   races* GCAPS adds over PPQ — small enough that the hand-over
//!   completes inside the waiter's remaining slack. Priority-based
//!   preemptions (the ones PPQ already performs) are never slack-gated, so
//!   a kernel that has slipped past its deadline still outranks
//!   lower-priority work.
//!
//! With no deadlines anywhere and an unbounded latency budget both
//! refinements are inert, and GCAPS makes **exactly** the decisions of
//! [`PpqPolicy::exclusive`](crate::PpqPolicy::exclusive) — regression-tested
//! in the workspace test suite.

use crate::policy::{assign_idle_sms, select_victim, SchedulingPolicy};
use gpreempt_gpu::{ExecutionEngine, KsrIndex};
use gpreempt_types::{KernelLaunchId, Priority, SimTime, SmId};

/// The urgency of one active kernel: its scheduling priority plus the
/// absolute deadline of the execution it belongs to (`None` for kernels of
/// processes without a real-time contract — the least urgent within their
/// priority level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Urgency {
    priority: Priority,
    deadline: Option<SimTime>,
}

impl Urgency {
    fn of(engine: &ExecutionEngine, ksr: KsrIndex) -> Option<Urgency> {
        let kernel = engine.kernel(ksr)?;
        Some(Urgency {
            priority: kernel.launch().priority,
            deadline: kernel.deadline(),
        })
    }

    /// The deadline used for ordering: kernels without one sort after every
    /// kernel that has one.
    fn deadline_or_max(self) -> SimTime {
        self.deadline.unwrap_or(SimTime::MAX)
    }

    /// Whether this urgency strictly outranks `other`: higher priority, or
    /// — at equal priority — a strictly earlier deadline.
    fn outranks(self, other: Urgency) -> bool {
        if self.priority != other.priority {
            return self.priority > other.priority;
        }
        self.deadline_or_max() < other.deadline_or_max()
    }
}

/// The context-aware preemptive priority scheduler.
#[derive(Debug, Default)]
pub struct GcapsPolicy {
    /// Upper bound on the expected preemption latency the policy is willing
    /// to pay; `None` = unbounded.
    latency_budget: Option<SimTime>,
    /// Scratch for the urgency-ordered active queue, reused across hooks.
    order: Vec<KsrIndex>,
}

impl GcapsPolicy {
    /// Creates a GCAPS scheduler with an unbounded preemption-latency
    /// budget (cost still gates deadline-racing preemptions via slack).
    pub fn new() -> Self {
        GcapsPolicy::default()
    }

    /// Creates a GCAPS scheduler that refuses preemptions whose expected
    /// latency exceeds `budget`.
    pub fn with_latency_budget(budget: SimTime) -> Self {
        GcapsPolicy {
            latency_budget: Some(budget),
            order: Vec::new(),
        }
    }

    /// The configured latency budget.
    pub fn latency_budget(&self) -> Option<SimTime> {
        self.latency_budget
    }

    /// Fills the scratch with the active kernels in descending urgency:
    /// priority first, then earliest deadline, then admission order. With no
    /// deadlines this is exactly the PPQ priority order.
    fn order_by_urgency(&mut self, engine: &ExecutionEngine) {
        self.order.clear();
        self.order.extend(engine.active_kernels());
        self.order.sort_by_key(|&k| {
            let state = engine.kernel(k).expect("active kernel");
            let urgency = Urgency::of(engine, k).expect("active kernel");
            (
                std::cmp::Reverse(state.launch().priority),
                urgency.deadline_or_max(),
                state.admitted_at(),
                k.index(),
            )
        });
    }

    /// Whether preempting `victim`'s SM with the given expected hand-over
    /// latency is worth it for `waiter`: the latency must fit the configured
    /// budget and, for the **equal-priority deadline races GCAPS adds over
    /// PPQ**, the hand-over must complete inside the waiter's remaining
    /// slack — a preemption that lands after the deadline cannot save it,
    /// and a waiter already past its deadline has no slack left for anyone
    /// else's cost. A waiter that outranks its victim by *priority* is never
    /// slack-gated: that preemption is exactly what PPQ would do, and
    /// withholding it once a deadline slipped would invert priorities (a
    /// late critical kernel stuck behind best-effort work for the victim's
    /// whole residual runtime).
    fn preemption_justified(
        &self,
        now: SimTime,
        latency: SimTime,
        waiter: Urgency,
        victim: Urgency,
    ) -> bool {
        if let Some(budget) = self.latency_budget {
            if latency > budget {
                return false;
            }
        }
        if waiter.priority.outranks(victim.priority) {
            return true;
        }
        match waiter.deadline {
            Some(deadline) => latency <= deadline.saturating_sub(now),
            None => true,
        }
    }

    /// Finds a running SM whose current kernel is strictly outranked by
    /// `waiter`, preferring the least urgent victim (lowest priority, then
    /// latest deadline, then latest admission) — the PPQ victim rule
    /// extended with the deadline dimension.
    fn pick_victim(&self, engine: &ExecutionEngine, waiter: Urgency) -> Option<SmId> {
        select_victim(engine, |engine, current| {
            let victim = Urgency::of(engine, current)?;
            if !waiter.outranks(victim) {
                return None;
            }
            let admitted = engine.kernel(current).expect("active kernel").admitted_at();
            Some((
                std::cmp::Reverse(victim.priority),
                victim.deadline_or_max(),
                admitted,
            ))
        })
    }

    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        self.order_by_urgency(engine);
        // Exclusive access at the priority level, like PPQ: while a
        // higher-priority kernel is active, strictly lower-priority kernels
        // stay off the engine entirely (deadlines only refine ordering and
        // preemption *within* a priority level).
        let top_priority = match engine
            .active_kernels()
            .filter_map(|k| engine.kernel(k))
            .filter(|k| !k.is_finished())
            .map(|k| k.launch().priority)
            .max()
        {
            Some(p) => p,
            None => return,
        };
        for i in 0..self.order.len() {
            let ksr = self.order[i];
            let Some(kernel) = engine.kernel(ksr) else {
                continue;
            };
            if !kernel.has_blocks_to_issue() {
                continue;
            }
            let Some(waiter) = Urgency::of(engine, ksr) else {
                continue;
            };
            if waiter.priority < top_priority {
                break;
            }
            // First soak up idle SMs.
            assign_idle_sms(now, engine, ksr, None);
            // Then preempt the least urgent victims, but only when the
            // engine's cost estimate says the hand-over is worth paying.
            while let Some(kernel) = engine.kernel(ksr) {
                let needed = kernel.sms_needed().saturating_sub(engine.owned_sms(ksr));
                if needed == 0 {
                    break;
                }
                let Some(victim_sm) = self.pick_victim(engine, waiter) else {
                    break;
                };
                let victim = engine
                    .sm(victim_sm)
                    .current_kernel()
                    .and_then(|k| Urgency::of(engine, k))
                    .expect("picked victim is running a kernel");
                let latency = engine.cost_view(now).expected_latency(victim_sm);
                if !self.preemption_justified(now, latency, waiter, victim) {
                    break;
                }
                if !engine.preempt_sm(now, victim_sm, ksr) {
                    break;
                }
            }
        }
    }
}

impl SchedulingPolicy for GcapsPolicy {
    fn name(&self) -> &'static str {
        "GCAPS"
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

    fn on_quantum_expired(&mut self, now: SimTime, _sm: SmId, engine: &mut ExecutionEngine) {
        // A quantum boundary is a fresh decision point: urgencies may have
        // shifted (deadlines got closer) since the last hook.
        self.schedule(now, engine);
    }

    fn on_deadline_approaching(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _deadline: SimTime,
        engine: &mut ExecutionEngine,
    ) {
        // The endangered kernel's slack just crossed the warning margin;
        // rescheduling lets it claim SMs (or preempt) before it is too late.
        self.schedule(now, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PpqPolicy;
    use crate::testutil::{toy_launch, toy_launch_with_priority, PolicyHarness};
    use gpreempt_gpu::{KernelLaunch, PreemptionMechanism};
    use gpreempt_types::{Criticality, RtSpec};

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
    fn urgency_ordering_rules() {
        let a = Urgency {
            priority: Priority::HIGH,
            deadline: None,
        };
        let b = Urgency {
            priority: Priority::NORMAL,
            deadline: Some(SimTime::from_micros(1)),
        };
        assert!(a.outranks(b), "priority dominates deadlines");
        let c = Urgency {
            priority: Priority::NORMAL,
            deadline: Some(SimTime::from_micros(5)),
        };
        assert!(b.outranks(c), "earlier deadline wins at equal priority");
        let d = Urgency {
            priority: Priority::NORMAL,
            deadline: None,
        };
        assert!(c.outranks(d), "any deadline outranks none");
        assert!(!d.outranks(d), "irreflexive");
    }

    /// At equal priority, GCAPS preempts a later-deadline kernel on behalf
    /// of an earlier-deadline one — the move PPQ never makes.
    #[test]
    fn equal_priority_earlier_deadline_preempts_later_deadline() {
        let mut h = PolicyHarness::new(GcapsPolicy::new(), PreemptionMechanism::ContextSwitch);
        // A long kernel with a loose deadline owns the GPU...
        h.submit(rt_launch(0, 0, 2_000, 400, 1_000_000));
        h.run_for(SimTime::from_micros(50));
        // ... and a tight-deadline kernel of the same priority arrives.
        h.submit(rt_launch(1, 1, 104, 20, 3_000));
        h.run_for(SimTime::from_micros(100));
        assert!(
            h.engine().stats().preemptions > 0,
            "the tight-deadline kernel must preempt"
        );
        h.run_to_idle();
        let t1 = h
            .completions()
            .iter()
            .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
            .unwrap()
            .finished_at;
        assert!(
            t1 < SimTime::from_micros(400),
            "finished before the long tail: {t1}"
        );

        // PPQ, by contrast, never preempts at equal priority.
        let mut p = PolicyHarness::new(PpqPolicy::exclusive(), PreemptionMechanism::ContextSwitch);
        p.submit(toy_launch(0, 0, 2_000, 400));
        p.run_for(SimTime::from_micros(50));
        p.submit(toy_launch(1, 1, 104, 20));
        p.run_to_idle();
        assert_eq!(p.engine().stats().preemptions, 0);
    }

    /// The latency budget gates preemptions: with a budget far below any
    /// context-save time GCAPS degrades to non-preemptive behaviour.
    #[test]
    fn tiny_latency_budget_suppresses_preemption() {
        let mut h = PolicyHarness::new(
            GcapsPolicy::with_latency_budget(SimTime::from_nanos(1)),
            PreemptionMechanism::ContextSwitch,
        );
        assert_eq!(
            GcapsPolicy::with_latency_budget(SimTime::from_nanos(1)).latency_budget(),
            Some(SimTime::from_nanos(1))
        );
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        h.submit(toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH));
        h.run_for(SimTime::from_micros(100));
        assert_eq!(
            h.engine().stats().preemptions,
            0,
            "no preemption fits a 1ns budget"
        );
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2, "work conservation still holds");
    }

    /// A waiter with *no* remaining slack cannot be saved by preempting, but
    /// a waiter whose slack exceeds the save time can — the slack gate only
    /// blocks pointless preemptions.
    #[test]
    fn slack_gate_blocks_hopeless_preemptions() {
        // Tight deadline: 1us of slack left when the kernel arrives, far
        // below any context-save latency, so GCAPS refuses to preempt the
        // equal-priority (deadline-free) occupant.
        let mut h = PolicyHarness::new(GcapsPolicy::new(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        let hopeless = toy_launch(1, 1, 104, 20).with_rt(
            RtSpec::implicit(SimTime::from_micros(h.now().as_micros_f64() as u64 + 1)),
            SimTime::ZERO,
        );
        h.submit(hopeless);
        h.run_for(SimTime::from_micros(30));
        assert_eq!(
            h.engine().stats().preemptions,
            0,
            "1us of slack is hopeless"
        );

        // Same scenario with a comfortable deadline: preemption goes ahead.
        let mut h2 = PolicyHarness::new(GcapsPolicy::new(), PreemptionMechanism::ContextSwitch);
        h2.submit(toy_launch(0, 0, 2_000, 400));
        h2.run_for(SimTime::from_micros(50));
        let viable = toy_launch(1, 1, 104, 20).with_rt(
            RtSpec::implicit(SimTime::from_micros(100_000)),
            SimTime::ZERO,
        );
        h2.submit(viable);
        h2.run_for(SimTime::from_micros(30));
        assert!(h2.engine().stats().preemptions > 0);
    }

    /// A *higher-priority* waiter is never slack-gated, even once it is
    /// already past its deadline: priority preemption (what PPQ would do)
    /// must survive a missed deadline, or the late critical kernel would
    /// sit behind best-effort work for the victim's whole residual
    /// runtime.
    #[test]
    fn missed_deadline_does_not_gate_priority_preemption() {
        let mut h = PolicyHarness::new(GcapsPolicy::new(), PreemptionMechanism::ContextSwitch);
        // Best-effort work owns the GPU.
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        // A high-priority kernel arrives with its deadline already in the
        // past (zero slack).
        let late = toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH)
            .with_rt(RtSpec::implicit(SimTime::from_micros(1)), SimTime::ZERO);
        h.submit(late);
        h.run_for(SimTime::from_micros(50));
        assert!(
            h.engine().stats().preemptions > 0,
            "a late high-priority kernel must still preempt best-effort work"
        );
        h.run_to_idle();
        let t1 = h
            .completions()
            .iter()
            .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
            .unwrap()
            .finished_at;
        assert!(
            t1 < SimTime::from_micros(400),
            "tardiness is minimised, not abandoned: {t1}"
        );
    }

    /// Criticality-derived priorities outrank legacy-normal processes end
    /// to end: a high-criticality late arrival takes the GPU.
    #[test]
    fn high_criticality_process_preempts_best_effort_work() {
        let mut h = PolicyHarness::new(GcapsPolicy::new(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        let critical = toy_launch_with_priority(1, 1, 104, 20, Criticality::High.priority())
            .with_rt(
                RtSpec::implicit(SimTime::from_micros(1_000_000))
                    .with_criticality(Criticality::High),
                SimTime::ZERO,
            );
        h.submit(critical);
        h.run_to_idle();
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        assert!(t(1) < t(0), "critical work finishes first");
        assert!(h.engine().stats().preemptions > 0);
    }
}
