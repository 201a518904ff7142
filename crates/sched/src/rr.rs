//! Quantum-driven round-robin — the fairness baseline.
//!
//! FCFS with time slicing: idle SMs are handed out in admission order (so
//! with a single kernel the policy is decision-identical to
//! [`FcfsPolicy`](crate::FcfsPolicy)), and every
//! [`QuantumExpired`](gpreempt_gpu::PolicyHook::QuantumExpired) tick offers
//! the expiring SM to the most SM-starved co-runner. A kernel is only
//! preempted for a co-runner that owns at least two SMs fewer than it, so
//! shares converge to an equal split and then stop moving — the quantum
//! rotates SMs toward fairness without thrashing once shares are balanced.
//!
//! Without a configured quantum the engine raises no `QuantumExpired`
//! hooks and the policy degenerates to exactly FCFS; the simulator arms a
//! default quantum when this policy is selected.

use crate::policy::{assign_idle_sms, SchedulingPolicy};
use gpreempt_gpu::{ExecutionEngine, KsrIndex, SmState};
use gpreempt_types::{KernelLaunchId, SimTime, SmId};

/// The quantum-driven round-robin scheduler.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    /// Scratch for the admission-ordered active queue, reused across hooks.
    order: Vec<KsrIndex>,
    /// The kernel served by the most recent rotation; the next rotation
    /// starts scanning after it, so SM hand-offs spread over all waiters.
    last_served: Option<KsrIndex>,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }

    /// Fills the scratch with the active kernels in admission order (ties
    /// broken by slot index).
    fn order_by_admission(&mut self, engine: &ExecutionEngine) {
        self.order.clear();
        self.order.extend(engine.active_kernels());
        self.order.sort_by_key(|&k| {
            let state = engine.kernel(k).expect("active kernel");
            (state.admitted_at(), k.index())
        });
    }

    /// Work-conserving fill, exactly like FCFS: admission order, each
    /// kernel takes the idle SMs it can use.
    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        self.order_by_admission(engine);
        for i in 0..self.order.len() {
            assign_idle_sms(now, engine, self.order[i], None);
        }
    }

    /// Picks the rotation target for an expiring SM currently running
    /// `current`: scanning the admission order from just past the last
    /// served kernel, the first co-runner with unissued blocks whose SM
    /// share trails `current`'s by at least two (so the hand-over strictly
    /// reduces imbalance; a gap of one would oscillate).
    fn rotation_target(&mut self, engine: &ExecutionEngine, current: KsrIndex) -> Option<KsrIndex> {
        self.order_by_admission(engine);
        if self.order.len() < 2 {
            return None;
        }
        let cur_owned = engine.owned_sms(current);
        let start = self
            .last_served
            .and_then(|k| self.order.iter().position(|&o| o == k))
            .map(|i| i + 1)
            .unwrap_or(0);
        let n = self.order.len();
        for i in 0..n {
            let k = self.order[(start + i) % n];
            if k == current {
                continue;
            }
            let Some(kernel) = engine.kernel(k) else {
                continue;
            };
            if !kernel.has_blocks_to_issue() {
                continue;
            }
            if engine.owned_sms(k) + 1 < cur_owned {
                return Some(k);
            }
        }
        None
    }
}

impl SchedulingPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "RR"
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
        ksr: KsrIndex,
        _launch: KernelLaunchId,
        engine: &mut ExecutionEngine,
    ) {
        if self.last_served == Some(ksr) {
            self.last_served = None;
        }
        self.schedule(now, engine);
    }

    fn on_quantum_expired(&mut self, now: SimTime, sm: SmId, engine: &mut ExecutionEngine) {
        let status = engine.sm(sm);
        if status.state() != SmState::Running {
            return;
        }
        let Some(current) = status.current_kernel() else {
            return;
        };
        if let Some(target) = self.rotation_target(engine, current) {
            if engine.preempt_sm(now, sm, target) {
                self.last_served = Some(target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcfs::FcfsPolicy;
    use crate::testutil::{toy_launch, PolicyHarness};
    use gpreempt_gpu::PreemptionMechanism;

    const QUANTUM: SimTime = SimTime::from_micros(100);

    #[test]
    fn without_quantum_matches_fcfs_decisions() {
        // No quantum configured: the engine raises no QuantumExpired hooks
        // and RR must finish the same kernels at the same times as FCFS.
        let mut rr =
            PolicyHarness::new(RoundRobinPolicy::new(), PreemptionMechanism::ContextSwitch);
        let mut fcfs = PolicyHarness::new(FcfsPolicy::new(), PreemptionMechanism::ContextSwitch);
        for h in [&mut rr, &mut fcfs] {
            h.submit(toy_launch(0, 0, 520, 50));
            h.submit(toy_launch(1, 1, 260, 50));
        }
        let t_rr = rr.run_to_idle();
        let t_fcfs = fcfs.run_to_idle();
        assert_eq!(t_rr, t_fcfs);
        assert_eq!(rr.engine().stats().preemptions, 0);
        assert_eq!(
            rr.completions()
                .iter()
                .map(|c| c.finished_at)
                .collect::<Vec<_>>(),
            fcfs.completions()
                .iter()
                .map(|c| c.finished_at)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn quantum_rotates_sms_to_a_starved_waiter() {
        // Kernel 0 grabs the whole GPU; kernel 1 arrives late and would
        // starve under FCFS until 0 drains. The quantum hands SMs over.
        let mut h = PolicyHarness::with_quantum(
            RoundRobinPolicy::new(),
            PreemptionMechanism::ContextSwitch,
            QUANTUM,
        );
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        h.submit(toy_launch(1, 1, 300, 50));
        h.run_for(SimTime::from_millis(2));
        assert!(
            h.engine().stats().preemptions > 0,
            "the quantum must rotate SMs toward the waiter"
        );
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2, "both kernels finish");
    }

    #[test]
    fn balanced_shares_stop_rotating() {
        // Two equal kernels admitted back to back split the GPU via the
        // work-conserving fill; once shares differ by at most one SM the
        // quantum must not thrash them.
        let mut h = PolicyHarness::with_quantum(
            RoundRobinPolicy::new(),
            PreemptionMechanism::ContextSwitch,
            QUANTUM,
        );
        h.submit(toy_launch(0, 0, 52, 200));
        h.submit(toy_launch(1, 1, 52, 200));
        h.run_to_idle();
        assert_eq!(
            h.engine().stats().preemptions,
            0,
            "balanced co-runners never preempt each other"
        );
        assert_eq!(h.completions().len(), 2);
    }
}
